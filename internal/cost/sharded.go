package cost

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// ShardedQueryCost is one query class metered through the shard router.
// USD prices the query's metered delta (requests plus transfer; storage
// does not move under a read) at January-2009 rates, so the multi-hop
// planner's op savings on Q.2/Q.3 show up as dollars too.
type ShardedQueryCost struct {
	Query   string  `json:"query"`
	Ops     int64   `json:"ops"`
	DataOut int64   `json:"data_out"`
	Results int     `json:"results"`
	USD     float64 `json:"usd"`
}

// ShardedRow is one (architecture, shard count) cell of the sharded cost
// matrix: the Table 2 write cost and Table 3 query cost of the combined
// workload pushed through the router, plus what a full tamper-evidence
// audit of the resulting namespace costs.
type ShardedRow struct {
	Arch   string `json:"arch"`
	Shards int    `json:"shards"`
	// ProvBytes / ProvOps are the Table 2 provenance overheads summed
	// across the member shards' namespaces.
	ProvBytes int64 `json:"prov_bytes"`
	ProvOps   int64 `json:"prov_ops"`
	// Queries holds the Table 3 classes run through the router. Only the
	// first two architectures are queried (the paper: "the query results
	// are the same for the last two architectures").
	Queries []ShardedQueryCost `json:"queries,omitempty"`
	// VerifyOps / VerifyUSD are the cloud operations and the January-2009
	// bill a full VerifyStores audit of the namespace costs. VerifyUSD
	// prices only the audit's delta (requests and transfer; storage is
	// unchanged by reading).
	VerifyOps int64   `json:"verify_ops"`
	VerifyUSD float64 `json:"verify_usd"`
	// VerifySubjects / VerifyRecords report the audit's coverage, and
	// VerifyClean that the freshly loaded namespace verified with zero
	// divergences — a false positive here is a harness bug.
	VerifySubjects int  `json:"verify_subjects"`
	VerifyRecords  int  `json:"verify_records"`
	VerifyClean    bool `json:"verify_clean"`
}

// ShardedCosts is the sharded cost matrix: the Tables 2/3 workloads
// driven through the shard router at each shard count, with the
// verification cost of the loaded namespace alongside.
type ShardedCosts struct {
	Scale       float64      `json:"scale"`
	Seed        int64        `json:"seed"`
	Tool        string       `json:"tool"`
	ShardCounts []int        `json:"shard_counts"`
	Rows        []ShardedRow `json:"rows"`
}

// shardedBuild is the per-shard store construction for one architecture,
// mirroring the unsharded harness builds (uncached queries, the WAL
// architecture's polling commit daemon).
type shardedBuild struct {
	stores  []shard.Store
	clouds  []*cloud.Cloud
	daemons []*s3sdbsqs.CommitDaemon
}

func buildShardedArch(arch string, multi *cloud.Multi, n int) (*shardedBuild, error) {
	b := &shardedBuild{}
	for s := 0; s < n; s++ {
		cl := multi.Namespace(fmt.Sprintf("s%d", s))
		b.clouds = append(b.clouds, cl)
		switch arch {
		case "s3":
			st, err := s3only.New(s3only.Config{Cloud: cl, DisableQueryCache: true})
			if err != nil {
				return nil, err
			}
			b.stores = append(b.stores, st)
		case "s3+sdb":
			st, err := s3sdb.New(s3sdb.Config{Cloud: cl, DisableQueryCache: true})
			if err != nil {
				return nil, err
			}
			b.stores = append(b.stores, st)
		case "s3+sdb+sqs":
			st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, ClientID: fmt.Sprintf("s%d", s), DisableQueryCache: true})
			if err != nil {
				return nil, err
			}
			d := s3sdbsqs.NewCommitDaemon(st, nil)
			d.Threshold = 256
			b.daemons = append(b.daemons, d)
			b.stores = append(b.stores, st)
		default:
			return nil, fmt.Errorf("cost: unknown architecture %q", arch)
		}
	}
	return b, nil
}

// drain runs every commit daemon to quiescence (no-op off the WAL
// architecture).
func (b *shardedBuild) drain(ctx context.Context, multi *cloud.Multi) error {
	for _, d := range b.daemons {
		for i := 0; ; i++ {
			n, err := d.RunOnce(ctx, true)
			if err != nil {
				return err
			}
			if n == 0 && d.PendingTransactions() == 0 {
				break
			}
			if i >= 50 {
				return fmt.Errorf("cost: sharded commit daemon did not drain (%d pending)", d.PendingTransactions())
			}
			multi.Settle()
		}
	}
	return nil
}

// usage sums the member namespaces' meters.
func (b *shardedBuild) usage() billing.Usage {
	var u billing.Usage
	for _, cl := range b.clouds {
		u = u.Add(cl.Usage())
	}
	return u
}

// Sharded drives the combined workload through the shard router at each
// requested shard count and reads the billing meters: the Tables 2/3
// costs of scale-out, plus the ops and dollars a full tamper-evidence
// audit (integrity.VerifyStores) of each loaded namespace costs. Shard
// counts default to 1, 4 and 16; the 1-shard row is the unsharded
// baseline the others are read against.
func (h *Harness) Sharded(ctx context.Context, shardCounts []int) (*ShardedCosts, error) {
	h.defaults()
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4, 16}
	}
	counts := append([]int(nil), shardCounts...)
	sort.Ints(counts)
	out := &ShardedCosts{Scale: h.Scale, Seed: h.Seed, Tool: h.Tool, ShardCounts: counts}

	for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		for _, n := range counts {
			row, err := h.shardedRun(ctx, arch, n)
			if err != nil {
				return nil, fmt.Errorf("cost: sharded %s x%d: %w", arch, n, err)
			}
			out.Rows = append(out.Rows, *row)
		}
	}
	return out, nil
}

func (h *Harness) shardedRun(ctx context.Context, arch string, n int) (*ShardedRow, error) {
	multi := cloud.NewMulti(cloud.Config{Seed: h.Seed})
	b, err := buildShardedArch(arch, multi, n)
	if err != nil {
		return nil, err
	}
	var store core.Store
	if n == 1 {
		store = b.stores[0].(core.Store)
	} else {
		r, err := shard.New(shard.Config{Shards: b.stores})
		if err != nil {
			return nil, err
		}
		store = r
	}
	setup := b.usage()

	// Load: same flush shape as the unsharded harness — the WAL daemons
	// poll every few flushed events, then drain fully.
	events := 0
	flush := core.Flusher(store)
	if len(b.daemons) > 0 {
		inner := flush
		flush = func(ctx context.Context, batch []pass.FlushEvent) error {
			if err := inner(ctx, batch); err != nil {
				return err
			}
			events += len(batch)
			if events >= 64 {
				events = 0
				for _, d := range b.daemons {
					if _, err := d.RunOnce(ctx, false); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	// Collect dataset stats if the unsharded harness has not run: the
	// sharded matrix sees the identical deterministic flush stream.
	var collector *Collector
	if h.stats.Objects == 0 {
		collector = &Collector{}
		flush = collector.Tee(flush)
	}
	sys := pass.NewSystem(pass.Config{Flush: flush})
	w := workload.NewCombined(h.Scale)
	if err := workload.Run(ctx, sys, sim.NewRNG(h.Seed), w); err != nil {
		return nil, err
	}
	if collector != nil {
		h.stats = collector.Stats
	}
	if err := core.SyncStore(ctx, store); err != nil {
		return nil, err
	}
	if err := b.drain(ctx, multi); err != nil {
		return nil, err
	}
	multi.Settle()
	loadEnd := b.usage()

	rawBytes, rawOps := h.stats.DataBytes, h.stats.Objects
	row := &ShardedRow{Arch: arch, Shards: n}
	row.ProvOps = loadEnd.TotalOps() - setup.TotalOps() - rawOps
	s3Extra := loadEnd.Storage(billing.S3) - rawBytes
	switch arch {
	case "s3":
		row.ProvBytes = s3Extra
	case "s3+sdb":
		row.ProvBytes = loadEnd.Storage(billing.SimpleDB) + s3Extra
	case "s3+sdb+sqs":
		row.ProvBytes = loadEnd.BytesIn(billing.SQS) + loadEnd.BytesOut(billing.SQS) +
			loadEnd.Storage(billing.SimpleDB) + s3Extra
	}

	// Table 3 classes through the router, cold, for the two backends the
	// paper reports.
	if arch != "s3+sdb+sqs" {
		querier, ok := store.(core.Querier)
		if !ok {
			return nil, fmt.Errorf("store is not a querier")
		}
		type queryFn struct {
			name string
			run  func() (int, error)
		}
		queries := []queryFn{
			{"Q.1", func() (int, error) {
				all, err := core.CollectRecords(querier.Query(ctx, prov.Q1()))
				return len(all), err
			}},
			{"Q.2", func() (int, error) {
				refs, err := core.CollectRefs(querier.Query(ctx, prov.QOutputsOf(h.Tool)))
				return len(refs), err
			}},
			{"Q.3", func() (int, error) {
				refs, err := core.CollectRefs(querier.Query(ctx, prov.QDescendantsOfOutputs(h.Tool)))
				return len(refs), err
			}},
		}
		for _, q := range queries {
			before := b.usage()
			results, err := q.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.name, err)
			}
			after := b.usage()
			row.Queries = append(row.Queries, ShardedQueryCost{
				Query:   q.name,
				Ops:     after.TotalOps() - before.TotalOps(),
				DataOut: totalOut(after) - totalOut(before),
				Results: results,
				USD:     billing.Jan2009.Price(after.Sub(before)).Total(),
			})
		}
	}

	// Verification cost: a full audit of every shard, composed into the
	// namespace root, priced off the meter delta.
	auditors := make([]integrity.Auditor, len(b.stores))
	for i, st := range b.stores {
		a, ok := st.(integrity.Auditor)
		if !ok {
			return nil, fmt.Errorf("shard %d is not auditable", i)
		}
		auditors[i] = a
	}
	before := b.usage()
	res, err := integrity.VerifyStores(ctx, auditors)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	after := b.usage()
	delta := after.Sub(before)
	row.VerifyOps = delta.TotalOps()
	row.VerifyUSD = billing.Jan2009.Price(delta).Total()
	row.VerifyClean = res.Clean()
	for _, sr := range res.Shards {
		row.VerifySubjects += sr.Subjects
		row.VerifyRecords += sr.Records
	}
	return row, nil
}

// String renders the matrix for terminal use.
func (t *ShardedCosts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded cost matrix (scale %.2f, seed %d): combined workload through the shard router\n", t.Scale, t.Seed)
	fmt.Fprintf(&b, "%-12s %7s %12s %12s %10s %10s %10s %10s %10s %11s %10s\n",
		"arch", "shards", "prov-bytes", "prov-ops", "Q.1-ops", "Q.2-ops", "Q.3-ops", "Q.2-$", "Q.3-$", "verify-ops", "verify-$")
	for _, r := range t.Rows {
		qops := map[string]string{"Q.1": "-", "Q.2": "-", "Q.3": "-"}
		qusd := map[string]string{"Q.2": "-", "Q.3": "-"}
		for _, q := range r.Queries {
			qops[q.Query] = fmt.Sprintf("%d", q.Ops)
			if q.Query != "Q.1" {
				qusd[q.Query] = fmt.Sprintf("%.6f", q.USD)
			}
		}
		clean := ""
		if !r.VerifyClean {
			clean = "  DIVERGED"
		}
		fmt.Fprintf(&b, "%-12s %7d %12s %12d %10s %10s %10s %10s %10s %11d %10.4f%s\n",
			r.Arch, r.Shards, fmtBytes(r.ProvBytes), r.ProvOps,
			qops["Q.1"], qops["Q.2"], qops["Q.3"], qusd["Q.2"], qusd["Q.3"], r.VerifyOps, r.VerifyUSD, clean)
	}
	fmt.Fprintf(&b, "verification coverage: per-row subjects/records audited ride the JSON report (verify_subjects, verify_records)\n")
	return b.String()
}
