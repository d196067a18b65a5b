package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/workload"
)

// This file is passbench's scale-out mode (-load): the sustained-load
// harness run for every architecture at every requested shard count, so
// the trajectory artifact carries throughput/scaling numbers gated
// exactly like the cloud-op counts.

// loadRunJSON is one (architecture, shard count) cell of the load matrix.
// Deterministic fields (events, ops, modeled throughput) are gated;
// wall-clock and latency percentiles are informative.
type loadRunJSON struct {
	Arch         string  `json:"arch"`
	Shards       int     `json:"shards"`
	Events       int64   `json:"events"`
	FlushBatches int64   `json:"flush_batches"`
	WriteOps     int64   `json:"write_ops"`
	PerShardOps  []int64 `json:"per_shard_ops"`
	BytesIn      int64   `json:"bytes_in"`
	ModeledMS    float64 `json:"modeled_write_ms"`
	Throughput   float64 `json:"throughput_eps"`
	// Speedup is ThroughputEPS relative to the same architecture's
	// 1-shard run of this report.
	Speedup float64 `json:"speedup,omitempty"`
	// Amplification is WriteOps relative to the 1-shard run (1.0 = the
	// per-shard op counts sum exactly to the unsharded baseline).
	Amplification float64 `json:"amplification,omitempty"`
	WallMS        float64 `json:"wall_ms"`
	FlushP50MS    float64 `json:"flush_p50_ms"`
	FlushP90MS    float64 `json:"flush_p90_ms"`
	FlushP99MS    float64 `json:"flush_p99_ms"`
	Queries       int64   `json:"queries"`
	QueryResults  int64   `json:"query_results"`
}

// loadReportJSON is the report's "load" section.
type loadReportJSON struct {
	Tenants     int           `json:"tenants"`
	Writers     int           `json:"writers"`
	Queriers    int           `json:"queriers"`
	Batches     int           `json:"batches"`
	Seed        int64         `json:"seed"`
	ShardCounts []int         `json:"shard_counts"`
	Runs        []loadRunJSON `json:"runs"`
}

// declare gates the load matrix per (architecture, shard count): write
// ops must not grow and modeled throughput must not drop, and the event
// count is an identity (same config, same offered workload). The WAL
// architecture's op totals can drift a few ops with queue interleaving;
// benchdiff's -tol absorbs it.
func (rep *loadReportJSON) declare(r *report) {
	r.Config["load/tenants"] = rep.Tenants
	r.Config["load/writers"] = rep.Writers
	r.Config["load/queriers"] = rep.Queriers
	r.Config["load/batches"] = rep.Batches
	r.Config["load/seed"] = rep.Seed
	r.Config["load/shard_counts"] = rep.ShardCounts
	for _, run := range rep.Runs {
		name := fmt.Sprintf("load/%s/x%d/", run.Arch, run.Shards)
		r.gate(name+"events", equal, float64(run.Events))
		r.gate(name+"writeops", lower, float64(run.WriteOps))
		r.gate(name+"eps", higher, run.Throughput)
	}
}

// parseShardCounts parses the -load-shards flag ("1,4,16").
func parseShardCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// runLoadMatrix executes the sustained-load harness for every
// architecture × shard count and fills the report section.
func runLoadMatrix(ctx context.Context, cfg workload.LoadConfig, shardCounts []int) (*loadReportJSON, error) {
	rep := &loadReportJSON{
		Tenants: cfg.Tenants, Writers: cfg.Writers, Queriers: cfg.Queriers,
		Batches: cfg.Batches, Seed: cfg.Seed, ShardCounts: shardCounts,
	}
	base := make(map[string]*loadRunJSON)
	for _, arch := range workload.LoadArchs {
		for _, shards := range shardCounts {
			fmt.Fprintf(os.Stderr, "passbench: load %s x%d shards (%d tenants x %d writers x %d batches)...\n",
				arch, shards, cfg.Tenants, cfg.Writers, cfg.Batches)
			multi := cloud.NewMulti(cloud.Config{Seed: cfg.Seed})
			res, err := workload.RunLoad(ctx, cfg, func(tenant int) (workload.LoadTarget, error) {
				return workload.BuildLoadTarget(multi, arch, tenant, shards)
			})
			if err != nil {
				return nil, fmt.Errorf("load %s x%d: %w", arch, shards, err)
			}
			run := loadRunJSON{
				Arch: arch, Shards: shards,
				Events: res.Events, FlushBatches: res.FlushBatches,
				WriteOps: res.WriteOps, PerShardOps: res.PerShardOps, BytesIn: res.BytesIn,
				ModeledMS:  float64(res.ModeledWrite) / float64(time.Millisecond),
				Throughput: res.ThroughputEPS,
				WallMS:     float64(res.Wall) / float64(time.Millisecond),
				FlushP50MS: float64(res.FlushLatency.P50) / float64(time.Millisecond),
				FlushP90MS: float64(res.FlushLatency.P90) / float64(time.Millisecond),
				FlushP99MS: float64(res.FlushLatency.P99) / float64(time.Millisecond),
				Queries:    res.Queries, QueryResults: res.QueryResults,
			}
			if shards == 1 {
				base[arch] = &run
			}
			if b := base[arch]; b != nil && shards > 1 && b.Throughput > 0 && b.WriteOps > 0 {
				run.Speedup = run.Throughput / b.Throughput
				run.Amplification = float64(run.WriteOps) / float64(b.WriteOps)
			}
			rep.Runs = append(rep.Runs, run)
		}
	}
	return rep, nil
}

// text renders the matrix for terminal use — the same numbers the
// README's capacity-planning table is generated from.
func (rep *loadReportJSON) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sustained load: %d tenants x %d writers x %d batches, %d queriers/tenant, seed %d (latency model WAN2009)\n",
		rep.Tenants, rep.Writers, rep.Batches, rep.Queriers, rep.Seed)
	fmt.Fprintf(&b, "%-12s %7s %8s %10s %12s %10s %9s %7s %10s %10s\n",
		"arch", "shards", "events", "write-ops", "modeled", "ev/s", "speedup", "amp", "p50-flush", "p99-flush")
	for _, r := range rep.Runs {
		speedup, amp := "-", "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
			amp = fmt.Sprintf("%.3f", r.Amplification)
		}
		fmt.Fprintf(&b, "%-12s %7d %8d %10d %11.0fms %10.0f %9s %7s %9.2fms %9.2fms\n",
			r.Arch, r.Shards, r.Events, r.WriteOps, r.ModeledMS, r.Throughput, speedup, amp, r.FlushP50MS, r.FlushP99MS)
	}
	return b.String()
}
