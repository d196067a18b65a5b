package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"path"
	"sort"
	"strings"

	"passcloud/internal/pass"
	"passcloud/internal/workload"
)

// This file is the oracle. It derives every expected answer from the
// script alone, by following PASS's observation rules at the object-path
// level: a read makes a process depend on the file and its ancestry, a
// pipe or exec hands the writer's ancestry to the reader, and a derived
// write gives the new file version the process's ancestry so far. It
// never asks the program what the answer is.

// bitset is a set of small non-negative integers (file ids).
type bitset []uint64

func (b *bitset) add(i int32) {
	w := int(i) / 64
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) % 64)
}

func (b *bitset) union(o bitset) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	for i, w := range o {
		(*b)[i] |= w
	}
}

func (b bitset) clone() bitset { return append(bitset(nil), b...) }

func (b bitset) each(f func(int32)) {
	for i, w := range b {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			f(int32(i*64 + t))
			w &^= 1 << t
		}
	}
}

// version is the oracle's view of one file version.
type version struct {
	anc    bitset // ids of every file with a version in this one's ancestry
	up     uint16 // tools whose outputs are ancestors of this version
	writer string // writing tool, "" for an ingested data set
}

type fileState struct {
	id       int32
	path     string
	version  int // current version number
	versions int // versions frozen so far
	dirty    bool
	writer   int32 // process slot of the dirty version's writer
	cur      *version
	read     bool // some process has read a version
}

type procState struct {
	name    string
	anc     bitset
	up      uint16
	flushed bool
}

// model follows the script's effect on the repository.
type model struct {
	files   map[string]*fileState
	byID    []*fileState
	procs   []*procState
	sources []int32
	derived []int32
	outputs [16]map[int32]bool // per tool: Q.2 file ids
	// outputList lists each tool's Q.2 file ids in first-write order.
	outputList [16][]int32
	// dirs lists file directories in first-seen order.
	dirs     []string
	dirSeen  map[string]bool
	desc     [16]map[int32]bool // per tool: Q.3 file ids
	procsFor map[string]int     // flushed process objects per program name
}

func newModel() *model {
	m := &model{files: make(map[string]*fileState), procsFor: make(map[string]int), dirSeen: make(map[string]bool)}
	for i := range tools {
		m.outputs[i] = make(map[int32]bool)
		m.desc[i] = make(map[int32]bool)
	}
	return m
}

func (m *model) file(p string) *fileState {
	f, ok := m.files[p]
	if !ok {
		f = &fileState{id: int32(len(m.byID)), path: p, version: -1}
		m.files[p] = f
		m.byID = append(m.byID, f)
		if d := path.Dir(p) + "/"; !m.dirSeen[d] {
			m.dirSeen[d] = true
			m.dirs = append(m.dirs, d)
		}
	}
	return f
}

// apply advances the model past one op. Queries leave it unchanged.
func (m *model) apply(o *op) {
	switch o.kind {
	case opIngest:
		f := m.file(o.path)
		f.version, f.cur = 0, &version{}
		m.freeze(f)
		m.sources = append(m.sources, f.id)
	case opExec:
		p := &procState{name: o.exec.name}
		if o.other >= 0 {
			parent := m.procs[o.other]
			p.anc, p.up = parent.anc.clone(), parent.up
		}
		m.procs = append(m.procs, p)
	case opRead:
		f, p := m.files[o.path], m.procs[o.proc]
		if f.dirty {
			m.freeze(f)
		}
		f.read = true
		p.anc.union(f.cur.anc)
		p.anc.add(f.id)
		p.up |= f.cur.up | toolBit[f.cur.writer]
	case opPipe:
		from, to := m.procs[o.proc], m.procs[o.other]
		to.anc.union(from.anc)
		to.up |= from.up
	case opDerive:
		f, p := m.file(o.path), m.procs[o.proc]
		if f.dirty && f.writer == o.proc {
			// Appending to its own open version.
			f.cur.anc.union(p.anc)
			f.cur.up |= p.up
			return
		}
		switch {
		case f.version < 0:
			f.version = 0
		case f.dirty:
			m.freeze(f)
			f.version++
		default:
			f.version++
		}
		f.dirty, f.writer = true, o.proc
		f.cur = &version{anc: p.anc.clone(), up: p.up, writer: p.name}
	case opClose:
		if f := m.files[o.path]; f.dirty {
			m.freeze(f)
			if p := m.procs[f.writer]; !p.flushed {
				p.flushed = true
				m.procsFor[p.name]++
			}
		}
	}
}

// freeze makes the current version immutable and enters it into the
// per-tool answer sets.
func (m *model) freeze(f *fileState) {
	f.dirty = false
	f.versions++
	v := f.cur
	if v.writer == "" {
		return
	}
	for i, t := range tools {
		switch {
		case t == v.writer:
			if !m.outputs[i][f.id] {
				m.outputs[i][f.id] = true
				m.outputList[i] = append(m.outputList[i], f.id)
			}
		case v.up&(1<<i) != 0:
			m.desc[i][f.id] = true
		}
	}
}

func toolIndex(t string) int {
	for i, x := range tools {
		if x == t {
			return i
		}
	}
	return -1
}

// persisted lists the ids of files with at least one frozen version.
func (m *model) persisted() []int32 {
	var out []int32
	for _, f := range m.byID {
		if f.versions > 0 {
			out = append(out, f.id)
		}
	}
	return out
}

func (m *model) randomFile(rng *rand.Rand) string {
	for {
		f := m.byID[rng.IntN(len(m.byID))]
		if f.versions > 0 && !f.dirty {
			return f.path
		}
	}
}

// randomOutput picks a file the tool has written.
func (m *model) randomOutput(rng *rand.Rand, tool string) string {
	ids := m.outputList[toolIndex(tool)]
	return m.byID[ids[rng.IntN(len(ids))]].path
}

func (m *model) randomSource(rng *rand.Rand) string {
	return m.byID[m.sources[rng.IntN(len(m.sources))]].path
}

// expected answers ---------------------------------------------------------

// pathSet renders file ids as a path set.
func (m *model) pathSet(ids map[int32]bool) map[string]bool {
	out := make(map[string]bool, len(ids))
	for id := range ids {
		out[m.byID[id].path] = true
	}
	return out
}

func (m *model) expectOutputs(tool string) map[string]bool {
	return m.pathSet(m.outputs[toolIndex(tool)])
}

func (m *model) expectDescendants(tool string) map[string]bool {
	return m.pathSet(m.desc[toolIndex(tool)])
}

// expectAncestors is the file-path ancestry of p's current version,
// without p itself.
func (m *model) expectAncestors(p string) map[string]bool {
	f := m.files[p]
	out := make(map[string]bool)
	f.cur.anc.each(func(id int32) {
		if id != f.id {
			out[m.byID[id].path] = true
		}
	})
	return out
}

func (m *model) expectPrefix(prefix string) map[string]bool {
	out := make(map[string]bool)
	for _, f := range m.byID {
		if f.versions > 0 && strings.HasPrefix(f.path, prefix) {
			out[f.path] = true
		}
	}
	return out
}

func (m *model) expectFiles() map[string]bool { return m.expectPrefix("/") }

// versionKey names one file version as "path:version".
func versionKey(p string, v int) string { return fmt.Sprintf("%s:%d", p, v) }

// sameSet reports whether got equals want, describing the first
// difference.
func sameSet(got, want map[string]bool) (bool, string) {
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(missing)+len(extra) == 0 {
		return true, ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return false, fmt.Sprintf("want %d got %d (missing %v, extra %v)", len(want), len(got), head(missing), head(extra))
}

func head(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}

// referenceCapture runs the script's capture ops through a bare PASS
// system whose flush only records what it is handed: the content digest
// of every file version, the bytes the store stack must give back. It
// also checks the oracle's version numbering against PASS's.
func referenceCapture(ops []op, m *model) (map[string][32]byte, int64, error) {
	digests := make(map[string][32]byte)
	var userBytes int64
	sys := pass.NewSystem(pass.Config{Flush: func(_ context.Context, batch []pass.FlushEvent) error {
		for _, ev := range batch {
			if ev.Persistent() {
				digests[ev.Ref.String()] = sha256.Sum256(ev.Data)
				userBytes += int64(len(ev.Data))
			}
		}
		return nil
	}})
	ctx := context.Background()
	var procs []*pass.Process
	for i := range ops {
		o := &ops[i]
		var err error
		switch o.kind {
		case opIngest:
			err = sys.Ingest(ctx, o.path, o.data)
		case opExec:
			var parent *pass.Process
			if o.other >= 0 {
				parent = procs[o.other]
			}
			procs = append(procs, sys.Exec(parent, pass.ExecSpec{Name: o.exec.name, Argv: o.exec.argv, Env: o.exec.env}))
		case opRead:
			err = sys.Read(procs[o.proc], o.path)
		case opPipe:
			err = sys.Pipe(procs[o.proc], procs[o.other])
		case opDerive:
			var data []byte
			if data, err = workload.DeriveOutput(sys, procs[o.proc], o.path); err == nil {
				err = sys.Write(procs[o.proc], o.path, data, pass.Truncate)
			}
		case opClose:
			err = sys.Close(ctx, procs[o.proc], o.path)
		case opExit:
			sys.Exit(procs[o.proc])
		case opSync:
			err = sys.Sync(ctx)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("reference capture op %d: %w", i, err)
		}
	}
	if err := sys.Sync(ctx); err != nil {
		return nil, 0, fmt.Errorf("reference capture sync: %w", err)
	}
	for _, f := range m.byID {
		for v := 0; v < f.versions; v++ {
			if _, ok := digests[versionKey(f.path, v)]; !ok {
				return nil, 0, fmt.Errorf("oracle version %s was never flushed", versionKey(f.path, v))
			}
		}
	}
	return digests, userBytes, nil
}
