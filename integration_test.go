package passcloud

// Cross-module integration tests: full workloads through every architecture
// with failures injected mid-stream, verifying the paper's eventual-causal-
// ordering guarantee holds for whatever survives.

import (
	"context"
	"errors"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// crashAfterN wraps a flush function and fails permanently after n events,
// simulating a client that dies mid-workload and never comes back. The
// crash severs whole batches: a batch that would cross the budget is
// rejected outright, like a client dying before its close's flush lands.
func crashAfterN(n int, next pass.FlushFunc) pass.FlushFunc {
	count := 0
	return func(ctx context.Context, batch []pass.FlushEvent) error {
		count += len(batch)
		if count > n {
			return errors.New("client crashed")
		}
		return next(ctx, batch)
	}
}

func TestCausalOrderingSurvivesMidWorkloadCrash(t *testing.T) {
	ctx := context.Background()
	type build struct {
		name string
		mk   func(cl *cloud.Cloud) (core.Store, func() error, error)
	}
	builds := []build{
		{"s3", func(cl *cloud.Cloud) (core.Store, func() error, error) {
			st, err := s3only.New(s3only.Config{Cloud: cl})
			return st, nil, err
		}},
		{"s3+sdb", func(cl *cloud.Cloud) (core.Store, func() error, error) {
			st, err := s3sdb.New(s3sdb.Config{Cloud: cl})
			if err != nil {
				return nil, nil, err
			}
			recover := func() error {
				_, err := st.OrphanScan(ctx)
				return err
			}
			return st, recover, nil
		}},
		{"s3+sdb+sqs", func(cl *cloud.Cloud) (core.Store, func() error, error) {
			st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl})
			if err != nil {
				return nil, nil, err
			}
			recover := func() error {
				daemon := s3sdbsqs.NewCommitDaemon(st, nil)
				for i := 0; i < 30; i++ {
					n, err := daemon.RunOnce(ctx, true)
					if err != nil {
						return err
					}
					if n == 0 && daemon.PendingTransactions() == 0 {
						return nil
					}
					cl.Settle()
				}
				return nil
			}
			return st, recover, nil
		}},
	}

	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			cl := cloud.New(cloud.Config{Seed: 17})
			st, recover, err := b.mk(cl)
			if err != nil {
				t.Fatal(err)
			}

			// Crash the client 400 events into the challenge workload.
			sys := pass.NewSystem(pass.Config{
				Flush: crashAfterN(400, core.Flusher(st)),
			})
			w := workload.DefaultProvChallenge(0.2) // 16 runs: plenty past the crash
			err = workload.Run(ctx, sys, sim.NewRNG(17), w)
			if err == nil {
				t.Fatal("workload survived the injected crash")
			}

			// The client restarts: recovery runs, replication settles.
			if recover != nil {
				if err := recover(); err != nil {
					t.Fatal(err)
				}
			}
			cl.Settle()

			// Whatever is retrievable must be causally complete: every
			// input reference of every surviving subject resolves.
			q := st.(core.Querier)
			all, err := core.CollectRecords(q.Query(ctx, prov.Q1()))
			if err != nil {
				t.Fatal(err)
			}
			if len(all) < 100 {
				t.Fatalf("only %d subjects survived; crash point too early", len(all))
			}
			g := prov.NewGraph()
			for _, records := range all {
				g.AddAll(records)
			}
			if missing := g.MissingAncestors(); len(missing) != 0 {
				t.Fatalf("%s: %d dangling ancestors after crash (e.g. %v)",
					b.name, len(missing), missing[0])
			}
			if !g.IsAcyclic() {
				t.Fatal("cyclic provenance after crash")
			}
		})
	}
}

// TestWorkloadAnswersIdenticalAcrossArchitectures runs the same combined
// workload through all three architectures and demands bit-identical
// query answers — the efficiency differences must never change results.
func TestWorkloadAnswersIdenticalAcrossArchitectures(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cross-architecture comparison")
	}
	ctx := context.Background()
	const seed, scale = 23, 0.01
	const tool = "softmean"

	type answers struct {
		subjects int
		outputs  []prov.Ref
		desc     int
	}
	run := func(mk func(cl *cloud.Cloud) (core.Store, func() error, error)) answers {
		cl := cloud.New(cloud.Config{Seed: seed})
		st, finish, err := mk(cl)
		if err != nil {
			t.Fatal(err)
		}
		sys := pass.NewSystem(pass.Config{Flush: core.Flusher(st)})
		if err := workload.Run(ctx, sys, sim.NewRNG(seed), workload.NewCombined(scale)); err != nil {
			t.Fatal(err)
		}
		if err := core.SyncStore(ctx, st); err != nil {
			t.Fatal(err)
		}
		if finish != nil {
			if err := finish(); err != nil {
				t.Fatal(err)
			}
		}
		cl.Settle()
		q := st.(core.Querier)
		all, err := core.CollectRecords(q.Query(ctx, prov.Q1()))
		if err != nil {
			t.Fatal(err)
		}
		outputs, err := core.CollectRefs(q.Query(ctx, prov.QOutputsOf(tool)))
		if err != nil {
			t.Fatal(err)
		}
		desc, err := core.CollectRefs(q.Query(ctx, prov.QDescendantsOfOutputs(tool)))
		if err != nil {
			t.Fatal(err)
		}
		return answers{subjects: len(all), outputs: outputs, desc: len(desc)}
	}

	a1 := run(func(cl *cloud.Cloud) (core.Store, func() error, error) {
		st, err := s3only.New(s3only.Config{Cloud: cl})
		return st, nil, err
	})
	a2 := run(func(cl *cloud.Cloud) (core.Store, func() error, error) {
		st, err := s3sdb.New(s3sdb.Config{Cloud: cl})
		return st, nil, err
	})
	a3 := run(func(cl *cloud.Cloud) (core.Store, func() error, error) {
		st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl})
		if err != nil {
			return nil, nil, err
		}
		daemon := s3sdbsqs.NewCommitDaemon(st, nil)
		finish := func() error {
			for {
				n, err := daemon.RunOnce(ctx, true)
				if err != nil {
					return err
				}
				if n == 0 && daemon.PendingTransactions() == 0 {
					return nil
				}
				cl.Settle()
			}
		}
		return st, finish, nil
	})

	if a1.subjects != a2.subjects || a2.subjects != a3.subjects {
		t.Errorf("subject counts differ: %d / %d / %d", a1.subjects, a2.subjects, a3.subjects)
	}
	if len(a1.outputs) != len(a2.outputs) || len(a2.outputs) != len(a3.outputs) {
		t.Errorf("output counts differ: %d / %d / %d", len(a1.outputs), len(a2.outputs), len(a3.outputs))
	}
	for i := range a1.outputs {
		if a1.outputs[i] != a2.outputs[i] || a2.outputs[i] != a3.outputs[i] {
			t.Errorf("output %d differs: %v / %v / %v", i, a1.outputs[i], a2.outputs[i], a3.outputs[i])
		}
	}
	if a1.desc != a2.desc || a2.desc != a3.desc {
		t.Errorf("descendant counts differ: %d / %d / %d", a1.desc, a2.desc, a3.desc)
	}
}
