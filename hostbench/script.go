package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
)

// opKind is one public passcloud call.
type opKind uint8

const (
	opIngest opKind = iota
	opExec
	opRead
	opPipe
	opDerive
	opClose
	opExit
	opSync
	opGet
	opSearch
	opVerify
	opReplay
	numOpKinds
)

// callClass names the class an op's latency is reported under. Ingest is
// PASS's close of a downloaded data set (it freezes and flushes one file
// version through the same store path), so it is timed as a close.
var callClass = [numOpKinds]string{
	opIngest: "close", opExec: "exec", opRead: "read", opPipe: "pipe",
	opDerive: "derive", opClose: "close", opExit: "exit", opSync: "sync",
	opGet: "get", opSearch: "search", opVerify: "verify", opReplay: "replay",
}

// searchKind is one of the query-mix search shapes.
type searchKind uint8

const (
	searchQ1Page      searchKind = iota // one page of the paged Q.1 listing
	searchOutputs                       // Q.2: files written by a tool
	searchDescendants                   // Q.3: everything derived from Q.2
	searchAncestors                     // ancestry of one file version
	searchAttr                          // processes with name = tool
	searchPrefix                        // subjects under a path prefix, with records
	numSearchKinds
)

// q1PageLimit is the page size of the paged Q.1 listing.
const q1PageLimit = 256

// execSpec is the recorded identity of one process.
type execSpec struct {
	name string
	argv []string
	env  string
}

// op is one scripted call. Process handles are slots numbered in Exec
// order; proc is the acting process, other the exec parent or pipe
// target (-1 when absent).
type op struct {
	kind   opKind
	proc   int32
	other  int32
	path   string
	data   []byte
	exec   *execSpec
	search searchKind
	tool   string
}

// script is a seeded call sequence plus what the oracle needs to check it.
type script struct {
	ops []op
	// loadEnd is the index of the first op after the repository load
	// (the whole script for ingest).
	loadEnd int
	// userBytes is the file content the script writes, ingested and
	// derived, as counted by the reference capture.
	userBytes int64
	// digests holds the SHA-256 of every file version's content, keyed by
	// "path:version", from the reference capture.
	digests map[string][32]byte
}

// tools are the registry tools the scripts run; bit i of the oracle's
// tool sets (uint16) is tools[i].
var tools = []string{"formatdb", "tee", "perl", "cc", "ld", "align_warp", "reslice", "softmean", "slicer", "convert"}

var toolBit = func() map[string]uint16 {
	m := make(map[string]uint16, len(tools))
	for i, t := range tools {
		m[t] = 1 << i
	}
	return m
}()

// gen builds a script while keeping the oracle model in step, so later
// ops can target files that exist at that point of the script.
type gen struct {
	rng   *rand.Rand
	ops   []op
	m     *model
	procs int32
	// toolTurn rotates each kind of tool-keyed entry through tools (and
	// prefix searches through directories) independently, so every kind
	// meets every target equally often; the last slot is the audit cycle.
	toolTurn [numSearchKinds + 1]int
	// bigEnvs accumulates the big-environment fractions of the
	// environments drawn, from a seeded phase.
	bigEnvs float64
}

func newGen(seed int64) *gen {
	g := &gen{rng: rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)), m: newModel()}
	g.bigEnvs = g.rng.Float64()
	return g
}

// nextTool returns the next tool in turn for entries of one kind.
func (g *gen) nextTool(kind int) string {
	t := tools[g.toolTurn[kind]%len(tools)]
	g.toolTurn[kind]++
	return t
}

func (g *gen) emit(o op) {
	g.ops = append(g.ops, o)
	g.m.apply(&g.ops[len(g.ops)-1])
}

func (g *gen) ingest(path string, size int) {
	g.emit(op{kind: opIngest, path: path, data: g.payload(size), proc: -1, other: -1})
}

func (g *gen) exec(parent int32, name string, argv []string, bigEnv float64) int32 {
	p := g.procs
	g.procs++
	g.emit(op{kind: opExec, proc: p, other: parent, exec: &execSpec{name: name, argv: argv, env: g.env(bigEnv)}})
	return p
}

func (g *gen) read(p int32, path string) { g.emit(op{kind: opRead, proc: p, other: -1, path: path}) }
func (g *gen) pipe(from, to int32)       { g.emit(op{kind: opPipe, proc: from, other: to}) }
func (g *gen) exit(p int32)              { g.emit(op{kind: opExit, proc: p, other: -1}) }
func (g *gen) derive(p int32, path string) {
	g.emit(op{kind: opDerive, proc: p, other: -1, path: path})
}
func (g *gen) close(p int32, path string) { g.emit(op{kind: opClose, proc: p, other: -1, path: path}) }

// write derives and closes one output, the way every scripted tool
// persists its result.
func (g *gen) write(p int32, path string) {
	g.derive(p, path)
	g.close(p, path)
}

// payload draws deterministic ingest content.
func (g *gen) payload(size int) []byte {
	b := make([]byte, size)
	var seed [32]byte
	for i := 0; i < 4; i++ {
		v := g.rng.Uint64()
		for j := 0; j < 8; j++ {
			seed[i*8+j] = byte(v >> (8 * j))
		}
	}
	_, _ = rand.NewChaCha8(seed).Read(b) // ChaCha8.Read never fails
	return b
}

// sizes returns n sizes log-normally spread around mean — the shape
// internal/workload draws, clamped to [1, 64*mean] — stratified: the
// sizes are the distribution's quantiles at (i+0.5)/n in a seeded order,
// so every seed writes the same bytes in a different arrangement.
func (g *gen) sizes(n, mean int) []int {
	out := make([]int, n)
	for i, j := range g.rng.Perm(n) {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		out[j] = min(max(int(math.Exp(z*0.6)*float64(mean)), 1), 64*mean)
	}
	return out
}

// env draws a process environment: mostly 250 B - 1.1 KB, with a tail of
// bigFraction past every provenance size limit (1.1 - 6.3 KB). The tail
// is stratified: an environment is big when adding its fraction to the
// running sum crosses an integer, so every seed has the same share of
// big environments.
func (g *gen) env(bigFraction float64) string {
	n := 250 + g.rng.IntN(850)
	before := g.bigEnvs
	g.bigEnvs += bigFraction
	if math.Floor(g.bigEnvs) > math.Floor(before) {
		n = 1100 + g.rng.IntN(5200)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = 'A' + byte(g.rng.IntN(26))
	}
	return string(b)
}

func scaled(n int, scale float64, minimum int) int {
	return max(int(float64(n)*scale), minimum)
}

func sizeArg(argv []string, size int) []string {
	return append(argv, "-s", strconv.Itoa(size))
}

// load emits the Combined-shaped capture (internal/workload's calibrated
// paper profile): a kernel compile, BLAST pipelines and Provenance
// Challenge runs, each process drawing a >1 KB environment at the
// profile's rate, followed by a Sync. Counts scale; per-file sizes keep
// the profile's means except the linked image and the FASTA database,
// which scale with the counts.
func (g *gen) load(scale float64) {
	g.compile(scale)
	g.blast(scale)
	g.challenge(scale)
	g.emit(op{kind: opSync, proc: -1, other: -1})
}

func (g *gen) compile(scale float64) {
	const bigEnv = 0.22
	nSrc, nHdr := scaled(3200, scale, 3), scaled(620, scale, 2)
	headers, hdrSizes := make([]string, nHdr), g.sizes(nHdr, 4<<10)
	for i := range headers {
		headers[i] = fmt.Sprintf("/usr/src/linux/include/h%04d.h", i)
		g.ingest(headers[i], hdrSizes[i])
	}
	sources, srcSizes := make([]string, nSrc), g.sizes(nSrc, 10<<10)
	for i := range sources {
		sources[i] = fmt.Sprintf("/usr/src/linux/src/f%05d.c", i)
		g.ingest(sources[i], srcSizes[i])
	}
	mk := g.exec(-1, "make", []string{"make", "-j8", "vmlinux"}, bigEnv)
	objects := make([]string, nSrc)
	for i, src := range sources {
		cc := g.exec(mk, "cc", sizeArg([]string{"cc", "-O2", "-c", src}, 16<<10), bigEnv)
		g.read(cc, src)
		for h := 0; h < 14 && h < nHdr; h++ {
			g.read(cc, headers[(i+h*7)%nHdr])
		}
		objects[i] = fmt.Sprintf("/usr/src/linux/obj/f%05d.o", i)
		g.write(cc, objects[i])
		g.exit(cc)
	}
	ld := g.exec(mk, "ld", sizeArg([]string{"ld", "-o", "vmlinux"}, scaled(6<<20, scale, 64<<10)), bigEnv)
	for _, o := range objects {
		g.read(ld, o)
	}
	g.write(ld, "/usr/src/linux/vmlinux")
	g.exit(ld)
	g.exit(mk)
}

func (g *gen) blast(scale float64) {
	const bigEnv = 0.27
	const batchesPerJob = 40
	const fasta = "/blast/db/nr.fasta"
	g.ingest(fasta, scaled(150<<20, scale, 1<<20))
	fdb := g.exec(-1, "formatdb", []string{"formatdb", "-i", fasta}, bigEnv)
	g.read(fdb, fasta)
	dbFiles := []string{"/blast/db/nr.phr", "/blast/db/nr.pin", "/blast/db/nr.psq"}
	for _, f := range dbFiles {
		g.write(fdb, f)
	}
	g.exit(fdb)
	jobs := scaled(510, scale, 1)
	batchSizes := g.sizes(jobs*batchesPerJob, 10<<10)
	for j := 0; j < jobs; j++ {
		batches := make([]string, batchesPerJob)
		for b := range batches {
			batches[b] = fmt.Sprintf("/blast/queries/job%04d/batch%03d.fasta", j, b)
			g.ingest(batches[b], batchSizes[j*batchesPerJob+b])
		}
		bl := g.exec(-1, "blastall", []string{"blastall", "-p", "blastp", "-d", "nr"}, bigEnv)
		tee := g.exec(-1, "tee", sizeArg([]string{"tee", "-a", fmt.Sprintf("job%04d.out", j)}, 15<<10), bigEnv)
		for _, f := range dbFiles {
			g.read(bl, f)
		}
		out := fmt.Sprintf("/blast/results/job%04d.out", j)
		for _, b := range batches {
			cat := g.exec(-1, "cat", []string{"cat", b}, bigEnv)
			g.read(cat, b)
			g.pipe(cat, bl)
			g.exit(cat)
			g.pipe(bl, tee)
			// Each batch's hits extend the still-open output: a write to a
			// dirty file by its own writer appends.
			g.derive(tee, out)
		}
		g.close(tee, out)
		g.exit(bl)
		g.exit(tee)
		perl := g.exec(-1, "perl", sizeArg([]string{"perl", "summarize.pl", out}, 4<<10), bigEnv)
		g.read(perl, out)
		g.write(perl, fmt.Sprintf("/blast/results/job%04d.summary", j))
		g.exit(perl)
	}
}

func (g *gen) challenge(scale float64) {
	const bigEnv = 0.22
	const imageSize = 360 << 10
	const reference = "/fmri/reference.img"
	g.ingest(reference, imageSize)
	runs := scaled(80, scale, 1)
	imageSizes := g.sizes(4*runs, imageSize)
	for run := 0; run < runs; run++ {
		dir := fmt.Sprintf("/fmri/run%04d", run)
		var images, headers, warps [4]string
		for i := 0; i < 4; i++ {
			images[i] = fmt.Sprintf("%s/anatomy%d.img", dir, i+1)
			headers[i] = fmt.Sprintf("%s/anatomy%d.hdr", dir, i+1)
			g.ingest(images[i], imageSizes[4*run+i])
			g.ingest(headers[i], 348)
		}
		for i := 0; i < 4; i++ {
			aw := g.exec(-1, "align_warp", []string{"align_warp", images[i], reference, "-m", "12"}, bigEnv)
			g.read(aw, images[i])
			g.read(aw, headers[i])
			g.read(aw, reference)
			warps[i] = fmt.Sprintf("%s/warp%d.warp", dir, i+1)
			g.write(aw, warps[i])
			g.exit(aw)
		}
		var resliced []string
		for i := 0; i < 4; i++ {
			rs := g.exec(-1, "reslice", []string{"reslice", warps[i]}, bigEnv)
			g.read(rs, warps[i])
			img, hdr := fmt.Sprintf("%s/resliced%d.img", dir, i+1), fmt.Sprintf("%s/resliced%d.hdr", dir, i+1)
			g.write(rs, img)
			g.write(rs, hdr)
			resliced = append(resliced, img, hdr)
			g.exit(rs)
		}
		sm := g.exec(-1, "softmean", []string{"softmean", dir + "/atlas.img"}, bigEnv)
		for _, f := range resliced {
			g.read(sm, f)
		}
		g.write(sm, dir+"/atlas.img")
		g.write(sm, dir+"/atlas.hdr")
		g.exit(sm)
		for _, axis := range []string{"x", "y", "z"} {
			sl := g.exec(-1, "slicer", []string{"slicer", dir + "/atlas.img", "-" + axis}, bigEnv)
			g.read(sl, dir+"/atlas.img")
			g.read(sl, dir+"/atlas.hdr")
			slice := fmt.Sprintf("%s/atlas-%s.pgm", dir, axis)
			g.write(sl, slice)
			g.exit(sl)
			cv := g.exec(-1, "convert", []string{"convert", slice}, bigEnv)
			g.read(cv, slice)
			g.write(cv, fmt.Sprintf("%s/atlas-%s.gif", dir, axis))
			g.exit(cv)
		}
	}
}

// mixEntry is one query-mix entry kind: a search shape, a Get or a
// small derivation.
type mixEntry int

const (
	entryGet    mixEntry = -1
	entryDerive mixEntry = -2
)

// queryMixBlock is twenty entries: two of each of the six search shapes
// (60%), six Gets (30%) and two small derivations (10%). Every block
// runs them in a seeded order, so each seed has the same composition.
var queryMixBlock = func() []mixEntry {
	var b []mixEntry
	for k := searchKind(0); k < numSearchKinds; k++ {
		b = append(b, mixEntry(k), mixEntry(k))
	}
	for i := 0; i < 6; i++ {
		b = append(b, entryGet)
	}
	return append(b, entryDerive, entryDerive)
}()

// queryMix emits the query-mix entries in blocks of queryMixBlock until
// at least n have been emitted. Tool-keyed searches take the tools in
// turn.
func (g *gen) queryMix(n int) {
	for i := 0; i < n; {
		for _, j := range g.rng.Perm(len(queryMixBlock)) {
			switch e := queryMixBlock[j]; e {
			case entryGet:
				g.emit(op{kind: opGet, proc: -1, other: -1, path: g.m.randomFile(g.rng)})
			case entryDerive:
				g.smallDerivation(fmt.Sprintf("/mix/out%06d.txt", i))
			default:
				g.searchOp(searchKind(e))
			}
			i++
		}
	}
}

func (g *gen) searchOp(k searchKind) {
	o := op{kind: opSearch, search: k, proc: -1, other: -1}
	switch k {
	case searchOutputs, searchDescendants, searchAttr:
		o.tool = g.nextTool(int(k))
	case searchAncestors:
		o.path = g.m.randomOutput(g.rng, g.nextTool(int(k)))
	case searchPrefix:
		o.path = g.m.dirs[g.toolTurn[k]%len(g.m.dirs)]
		g.toolTurn[k]++
	}
	g.emit(o)
}

// smallDerivation runs one short tool over two ingested data sets and
// closes its output: one new file version on one shard. Reading raw data
// keeps the tools' Q.3 closures the load's, so every seed queries graphs
// of the same shape.
func (g *gen) smallDerivation(out string) {
	p := g.exec(-1, "perl", sizeArg([]string{"perl", "mix.pl"}, 2<<10), 0.22)
	g.read(p, g.m.randomSource(g.rng))
	g.read(p, g.m.randomSource(g.rng))
	g.write(p, out)
	g.exit(p)
}

// audit emits audit entries in blocks of twenty until at least n have
// been emitted: nineteen audits in a seeded order, then a Close that
// writes a new version of a file audited earlier. Audits walk a fixed
// cycle that gives every tool a VerifyLineage and then a Replay, each on
// a random file the tool wrote, so every seed audits the same mix.
// Rewrites pick files no process reads: the S3-only architecture keeps
// each object's current version only, so rewriting an input drops the
// old version's provenance by design and its descendants could no
// longer replay.
func (g *gen) audit(n int) {
	var leaves []string
	for i := 0; i < n; i += 20 {
		cycle := make([]int, 19)
		for j := range cycle {
			cycle[j] = g.toolTurn[numSearchKinds]
			g.toolTurn[numSearchKinds]++
		}
		for _, j := range g.rng.Perm(len(cycle)) {
			c := cycle[j]
			path := g.m.randomOutput(g.rng, tools[c%len(tools)])
			if !g.m.files[path].read {
				leaves = append(leaves, path)
			}
			kind := opVerify
			if c/len(tools)%2 == 1 {
				kind = opReplay
			}
			g.emit(op{kind: kind, proc: -1, other: -1, path: path})
		}
		g.rewrite(leaves[g.rng.IntN(len(leaves))])
	}
}

// rewrite writes a new version of path from one random data set.
func (g *gen) rewrite(path string) {
	p := g.exec(-1, "convert", sizeArg([]string{"convert", "-rewrite", path}, 8<<10), 0.22)
	g.read(p, g.m.randomSource(g.rng))
	g.write(p, path)
	g.exit(p)
}
