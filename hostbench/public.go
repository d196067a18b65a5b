package main

import (
	"context"

	"passcloud"
)

// publicTarget drives a passcloud.Client through its public API only.
type publicTarget struct {
	c     *passcloud.Client
	procs []*passcloud.Process
}

func newPublicTarget(opts passcloud.Options) (*publicTarget, error) {
	c, err := passcloud.New(opts)
	if err != nil {
		return nil, err
	}
	return &publicTarget{c: c}, nil
}

func (t *publicTarget) ingest(ctx context.Context, path string, data []byte) error {
	return t.c.Ingest(ctx, path, data)
}

func (t *publicTarget) exec(parent int32, s *execSpec) {
	var pp *passcloud.Process
	if parent >= 0 {
		pp = t.procs[parent]
	}
	t.procs = append(t.procs, t.c.Exec(pp, passcloud.ProcessSpec{Name: s.name, Argv: s.argv, Env: s.env}))
}

func (t *publicTarget) read(p int32, path string) error   { return t.procs[p].Read(path) }
func (t *publicTarget) pipe(from, to int32) error         { return t.procs[from].PipeTo(t.procs[to]) }
func (t *publicTarget) derive(p int32, path string) error { return t.procs[p].WriteDerived(path) }
func (t *publicTarget) exit(p int32)                      { t.procs[p].Exit() }
func (t *publicTarget) sync(ctx context.Context) error    { return t.c.Sync(ctx) }
func (t *publicTarget) usage() passcloud.UsageSummary     { return t.c.Usage() }

func (t *publicTarget) close(ctx context.Context, p int32, path string) error {
	return t.procs[p].Close(ctx, path)
}

func (t *publicTarget) get(ctx context.Context, path string) (*passcloud.Object, error) {
	return t.c.Get(ctx, path)
}

func (t *publicTarget) search(ctx context.Context, spec passcloud.QuerySpec) (*passcloud.SearchResult, error) {
	return t.c.Search(ctx, spec)
}

func (t *publicTarget) verify(ctx context.Context, path string) (*passcloud.LineageReport, error) {
	return t.c.VerifyLineage(ctx, path)
}

func (t *publicTarget) replay(ctx context.Context, path string) (*passcloud.ReplayReport, error) {
	return t.c.Replay(ctx, path)
}

func (t *publicTarget) verifyAll(ctx context.Context) (*passcloud.VerifyReport, error) {
	return t.c.VerifyAll(ctx)
}
