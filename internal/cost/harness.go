package cost

import (
	"context"
	"fmt"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// Harness runs the paper's evaluation: it loads the combined workload into
// each architecture against a fresh simulated AWS region and reads the
// billing meters to produce the measured Tables 2 and 3.
type Harness struct {
	// Scale is the workload scale (1.0 = paper scale). Default 0.1.
	Scale float64
	// Seed makes runs reproducible. Default 2009.
	Seed int64
	// Tool is the Q.2/Q.3 target. The paper queried blast; at our scaled
	// job counts blast has thousands of instances, so the default target
	// is softmean (the Provenance Challenge's bottleneck stage), which has
	// the selectivity the paper's blast queries had. See EXPERIMENTS.md.
	Tool string
	// CachedQueries enables the qcache snapshot cache on the loaded
	// stores. Off by default so Table 3 measures the paper's uncached
	// costs; when on, Table3Measured additionally reports each query's
	// repeat cost (~0 cloud ops on an unchanged repository). Note that
	// with the cache on, queries share warmth across classes too — e.g.
	// Q.2 on S3 reuses the snapshot Q.1 built, so even its base row can
	// read ~0. Authoritative cold costs come from the uncached default.
	CachedQueries bool

	loaded bool
	stats  DatasetStats
	runs   []*archRun
}

// archRun is one loaded architecture.
type archRun struct {
	name    string
	cloud   *cloud.Cloud
	store   core.Store
	querier core.Querier
	setup   billing.Usage // after construction, before load
	loadEnd billing.Usage // after load + settle
	// retryStats reports the store's cumulative retry overhead.
	retryStats func() retry.Snapshot
}

// defaults fills zero fields.
func (h *Harness) defaults() {
	if h.Scale == 0 {
		h.Scale = 0.1
	}
	if h.Seed == 0 {
		h.Seed = 2009
	}
	if h.Tool == "" {
		h.Tool = "softmean"
	}
}

// Stats returns the dataset statistics collected during Load.
func (h *Harness) Stats() DatasetStats { return h.stats }

// Load pushes the combined workload through all three architectures. It is
// idempotent; later table calls trigger it automatically.
func (h *Harness) Load(ctx context.Context) error {
	if h.loaded {
		return nil
	}
	h.defaults()

	type build struct {
		name string
		make func(cl *cloud.Cloud) (core.Store, pass.FlushFunc, func(context.Context) error, error)
	}
	uncached := !h.CachedQueries
	builds := []build{
		{name: "s3", make: func(cl *cloud.Cloud) (core.Store, pass.FlushFunc, func(context.Context) error, error) {
			st, err := s3only.New(s3only.Config{Cloud: cl, DisableQueryCache: uncached})
			if err != nil {
				return nil, nil, nil, err
			}
			return st, core.Flusher(st), nil, nil
		}},
		{name: "s3+sdb", make: func(cl *cloud.Cloud) (core.Store, pass.FlushFunc, func(context.Context) error, error) {
			st, err := s3sdb.New(s3sdb.Config{Cloud: cl, DisableQueryCache: uncached})
			if err != nil {
				return nil, nil, nil, err
			}
			return st, core.Flusher(st), nil, nil
		}},
		{name: "s3+sdb+sqs", make: func(cl *cloud.Cloud) (core.Store, pass.FlushFunc, func(context.Context) error, error) {
			st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, DisableQueryCache: uncached})
			if err != nil {
				return nil, nil, nil, err
			}
			daemon := s3sdbsqs.NewCommitDaemon(st, nil)
			daemon.Threshold = 256
			// The daemon "periodically monitors the WAL queue": poll every
			// few flushed events, drain when the threshold trips.
			events := 0
			flush := func(ctx context.Context, batch []pass.FlushEvent) error {
				if err := st.PutBatch(ctx, batch); err != nil {
					return err
				}
				events += len(batch)
				if events >= 64 {
					events = 0
					if _, err := daemon.RunOnce(ctx, false); err != nil {
						return err
					}
				}
				return nil
			}
			final := func(ctx context.Context) error {
				for i := 0; i < 50; i++ {
					n, err := daemon.RunOnce(ctx, true)
					if err != nil {
						return err
					}
					if n == 0 && daemon.PendingTransactions() == 0 {
						return nil
					}
					cl.Settle()
				}
				return fmt.Errorf("cost: commit daemon did not drain (%d pending)", daemon.PendingTransactions())
			}
			return st, flush, final, nil
		}},
	}

	collected := false
	for _, b := range builds {
		cl := cloud.New(cloud.Config{Seed: h.Seed})
		st, flush, finish, err := b.make(cl)
		if err != nil {
			return fmt.Errorf("cost: build %s: %w", b.name, err)
		}
		run := &archRun{name: b.name, cloud: cl, store: st, setup: cl.Usage()}
		if rs, ok := st.(interface{ RetryStats() retry.Snapshot }); ok {
			run.retryStats = rs.RetryStats
		}
		if q, ok := st.(core.Querier); ok {
			run.querier = q
		}

		// Collect dataset stats exactly once: all three runs see the same
		// deterministic flush stream.
		if !collected {
			collector := &Collector{}
			flush = collector.Tee(flush)
			defer func() { h.stats = collector.Stats }()
			collected = true
		}

		sys := pass.NewSystem(pass.Config{Flush: flush})
		w := workload.NewCombined(h.Scale)
		if err := workload.Run(ctx, sys, sim.NewRNG(h.Seed), w); err != nil {
			return fmt.Errorf("cost: load %s: %w", b.name, err)
		}
		if err := core.SyncStore(ctx, st); err != nil {
			return fmt.Errorf("cost: sync %s: %w", b.name, err)
		}
		if finish != nil {
			if err := finish(ctx); err != nil {
				return err
			}
		}
		cl.Settle()
		run.loadEnd = cl.Usage()
		h.runs = append(h.runs, run)
	}
	h.loaded = true
	return nil
}

// Table2Measured reads the storage comparison off the billing meters.
func (h *Harness) Table2Measured(ctx context.Context) (*Table2, error) {
	if err := h.Load(ctx); err != nil {
		return nil, err
	}
	t := &Table2{
		RawBytes: h.stats.DataBytes,
		RawOps:   h.stats.Objects,
		Method:   "measured",
		Scale:    h.Scale,
	}
	for _, run := range h.runs {
		u := run.loadEnd
		provOps := u.TotalOps() - run.setup.TotalOps() - t.RawOps

		var provBytes int64
		s3Extra := u.Storage(billing.S3) - t.RawBytes // metadata + overflow/spill objects
		switch run.name {
		case "s3":
			provBytes = s3Extra
		case "s3+sdb":
			provBytes = u.Storage(billing.SimpleDB) + s3Extra
		case "s3+sdb+sqs":
			// The paper's 2·S_SQS + S_SimpleDB: each provenance byte is
			// stored into and read back out of SQS once.
			provBytes = u.BytesIn(billing.SQS) + u.BytesOut(billing.SQS) +
				u.Storage(billing.SimpleDB) + s3Extra
		}
		t.Rows = append(t.Rows, Table2Row{
			Arch:      run.name,
			ProvBytes: provBytes,
			ProvOps:   provOps,
			Elapsed:   billing.WAN2009.Estimate(u),
		})
	}
	return t, nil
}

// Table2Estimated applies the paper's formulas to the collected stats,
// extrapolated to full paper scale.
func (h *Harness) Table2Estimated(ctx context.Context) (*Table2, error) {
	if err := h.Load(ctx); err != nil {
		return nil, err
	}
	t := Estimate(h.stats.Scale(h.Scale))
	t.Method = "estimated (paper formulas, extrapolated)"
	t.Scale = 1.0
	return t, nil
}

// Table3Measured runs the three query classes against the S3-only and
// SimpleDB backends, metering ops and data out. "The query results are the
// same for the last two architectures (as they both query SimpleDB), hence
// we omit the results for the third."
func (h *Harness) Table3Measured(ctx context.Context) (*Table3, error) {
	if err := h.Load(ctx); err != nil {
		return nil, err
	}
	t := &Table3{Tool: h.Tool, Scale: h.Scale}

	backends := []struct {
		label string
		run   *archRun
	}{
		{"S3", h.findRun("s3")},
		{"SimpleDB", h.findRun("s3+sdb")},
	}
	type queryFn struct {
		name string
		run  func(core.Querier) (int, error)
	}
	queries := []queryFn{
		{"Q.1", func(q core.Querier) (int, error) {
			all, err := core.CollectRecords(q.Query(ctx, prov.Q1()))
			return len(all), err
		}},
		{"Q.2", func(q core.Querier) (int, error) {
			refs, err := core.CollectRefs(q.Query(ctx, prov.QOutputsOf(h.Tool)))
			return len(refs), err
		}},
		{"Q.3", func(q core.Querier) (int, error) {
			refs, err := core.CollectRefs(q.Query(ctx, prov.QDescendantsOfOutputs(h.Tool)))
			return len(refs), err
		}},
	}

	for _, query := range queries {
		for _, backend := range backends {
			if backend.run == nil {
				return nil, fmt.Errorf("cost: backend %s not loaded", backend.label)
			}
			before := backend.run.cloud.Usage()
			n, err := query.run(backend.run.querier)
			if err != nil {
				return nil, fmt.Errorf("cost: %s on %s: %w", query.name, backend.label, err)
			}
			after := backend.run.cloud.Usage()
			t.Rows = append(t.Rows, Table3Row{
				Query:   query.name,
				Arch:    backend.label,
				DataOut: totalOut(after) - totalOut(before),
				Ops:     after.TotalOps() - before.TotalOps(),
				Results: n,
			})
			if h.CachedQueries {
				// The repeat run: the repository has not changed, so the
				// snapshot cache answers without touching the cloud.
				n2, err := query.run(backend.run.querier)
				if err != nil {
					return nil, fmt.Errorf("cost: %s repeat on %s: %w", query.name, backend.label, err)
				}
				again := backend.run.cloud.Usage()
				t.Rows = append(t.Rows, Table3Row{
					Query:   query.name + "+",
					Arch:    backend.label,
					DataOut: totalOut(again) - totalOut(after),
					Ops:     again.TotalOps() - after.TotalOps(),
					Results: n2,
				})
			}
		}
	}
	return t, nil
}

// Usage returns the load-phase usage snapshot of one architecture.
func (h *Harness) Usage(arch string) (billing.Usage, bool) {
	if run := h.findRun(arch); run != nil {
		return run.loadEnd, true
	}
	return billing.Usage{}, false
}

// Store returns a loaded store by architecture name.
func (h *Harness) Store(arch string) (core.Store, bool) {
	if run := h.findRun(arch); run != nil {
		return run.store, true
	}
	return nil, false
}

// RetrySnapshot returns one architecture's cumulative retry counters —
// zero across the board on a healthy region, so trajectory tooling can
// gate on retry overhead appearing.
func (h *Harness) RetrySnapshot(arch string) (retry.Snapshot, bool) {
	if run := h.findRun(arch); run != nil && run.retryStats != nil {
		return run.retryStats(), true
	}
	return retry.Snapshot{}, false
}

func (h *Harness) findRun(name string) *archRun {
	for _, run := range h.runs {
		if run.name == name {
			return run
		}
	}
	return nil
}

func totalOut(u billing.Usage) int64 {
	return u.BytesOut(billing.S3) + u.BytesOut(billing.SimpleDB) + u.BytesOut(billing.SQS)
}
