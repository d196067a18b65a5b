package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"passcloud/internal/cloud"
	"passcloud/internal/core/shard"
	"passcloud/internal/core/shard/reshard"
	"passcloud/internal/prov"
	"passcloud/internal/workload"
)

// This file is passbench's rebalance mode (-load-rebalance): the measured
// case for elastic resharding. Per architecture, a skewed sustained load
// pins ~90% of traffic to one shard of four, the migration controller
// detects the hot shard from the billing meters and splits it, and a
// second load phase replays the same traffic pattern — names chosen
// against the frozen pre-migration ring — through the flipped ring. The
// report carries the pre/post hot-shard op shares, what the migration
// moved, and what it cost in cloud ops, bytes and January-2009 USD, all
// gated.

const (
	rebalanceShards      = 4
	rebalanceHotShard    = 0
	rebalanceHotFraction = 0.9
)

// rebalanceRunJSON is one architecture's rebalance measurement.
type rebalanceRunJSON struct {
	Arch     string `json:"arch"`
	Shards   int    `json:"shards"`
	HotShard int    `json:"hot_shard"`
	// Action is what the controller decided ("split"; "none" would mean
	// detection failed and pre/post shares are equal).
	Action string `json:"action"`
	// PreHotShare and PostHotShare are the hot shard's fraction of
	// write-phase cloud ops before and after the controller ran.
	PreHotShare  float64 `json:"pre_hot_share"`
	PostHotShare float64 `json:"post_hot_share"`
	// MovedSubjects/Objects/Bytes describe the migrated arc; MigOps,
	// MigBytes and MigUSD are the migration's own metered cost.
	MovedSubjects int     `json:"moved_subjects"`
	MovedObjects  int     `json:"moved_objects"`
	MovedBytes    int64   `json:"moved_bytes"`
	MigOps        int64   `json:"mig_ops"`
	MigBytes      int64   `json:"mig_bytes"`
	MigUSD        float64 `json:"mig_usd"`
	Epoch         int     `json:"epoch"`
}

// rebalanceReportJSON is the report's "rebalance" section.
type rebalanceReportJSON struct {
	Writers     int                `json:"writers"`
	Batches     int                `json:"batches"`
	Seed        int64              `json:"seed"`
	Shards      int                `json:"shards"`
	HotFraction float64            `json:"hot_fraction"`
	Runs        []rebalanceRunJSON `json:"runs"`
}

// declare gates the rebalance runs per architecture: the controller must
// keep splitting the hot shard (none -> split passes, split -> none
// fails), the post-split hot share must not creep back up, and the
// migration's own ops and dollars must not grow.
func (rep *rebalanceReportJSON) declare(r *report) {
	r.Config["rebalance/writers"] = rep.Writers
	r.Config["rebalance/batches"] = rep.Batches
	r.Config["rebalance/seed"] = rep.Seed
	r.Config["rebalance/shards"] = rep.Shards
	r.Config["rebalance/hot_fraction"] = rep.HotFraction
	for _, run := range rep.Runs {
		name := "rebalance/" + run.Arch + "/"
		r.gate(name+"split", higher, flag01(run.Action == "split"))
		r.gate(name+"posthotshare", lower, run.PostHotShare)
		r.gate(name+"migops", lower, float64(run.MigOps))
		r.gate(name+"migusd", lower, run.MigUSD)
	}
}

// frozenPlacer replays a captured ring assignment: phase-2 names are
// chosen as if the migration had not happened, so the measurement shows
// where the *same* traffic lands after the cutover.
type frozenPlacer struct {
	router *shard.Router
	assign []int
}

func (p frozenPlacer) ShardFor(o prov.ObjectID) int { return p.router.OwnerIn(p.assign, o) }
func (p frozenPlacer) NumShards() int               { return p.router.NumShards() }

// hotShare is the hot shard's fraction of the summed per-shard ops.
func hotShare(perShard []int64, hot int) float64 {
	var sum int64
	for _, ops := range perShard {
		sum += ops
	}
	if sum == 0 || hot >= len(perShard) {
		return 0
	}
	return float64(perShard[hot]) / float64(sum)
}

// runRebalanceMatrix measures skew -> detect -> split -> replay for every
// architecture at the fixed 4-shard layout.
func runRebalanceMatrix(ctx context.Context, cfg workload.LoadConfig) (*rebalanceReportJSON, error) {
	cfg.Tenants = 1
	cfg.HotShardFraction = rebalanceHotFraction
	cfg.HotShard = rebalanceHotShard
	rep := &rebalanceReportJSON{
		Writers: cfg.Writers, Batches: cfg.Batches, Seed: cfg.Seed,
		Shards: rebalanceShards, HotFraction: rebalanceHotFraction,
	}
	for _, arch := range workload.LoadArchs {
		fmt.Fprintf(os.Stderr, "passbench: rebalance %s x%d shards (hot shard %d at %.0f%%)...\n",
			arch, rebalanceShards, rebalanceHotShard, 100*rebalanceHotFraction)
		multi := cloud.NewMulti(cloud.Config{Seed: cfg.Seed})
		tg, err := workload.BuildLoadTarget(multi, arch, 0, rebalanceShards)
		if err != nil {
			return nil, fmt.Errorf("rebalance %s: %w", arch, err)
		}
		router, ok := tg.Store.(*shard.Router)
		if !ok {
			return nil, fmt.Errorf("rebalance %s: store is not a shard router", arch)
		}
		ctrl, err := reshard.New(reshard.Config{Router: router, Clouds: tg.Clouds, Drain: tg.Drain})
		if err != nil {
			return nil, fmt.Errorf("rebalance %s: %w", arch, err)
		}
		ctrl.SampleBaseline()
		frozen := frozenPlacer{router: router, assign: router.Assignment()}

		build := func(int) (workload.LoadTarget, error) { return tg, nil }
		pre, err := workload.RunLoad(ctx, cfg, build)
		if err != nil {
			return nil, fmt.Errorf("rebalance %s phase 1: %w", arch, err)
		}

		mig, err := ctrl.RunOnce(ctx)
		if err != nil {
			return nil, fmt.Errorf("rebalance %s migration: %w", arch, err)
		}

		// Phase 2: a fresh seed (fresh names) skewed against the FROZEN
		// pre-migration ring, written through the flipped ring.
		replay := cfg
		replay.Seed = cfg.Seed + 1
		replay.Placer = frozen
		post, err := workload.RunLoad(ctx, replay, build)
		if err != nil {
			return nil, fmt.Errorf("rebalance %s phase 2: %w", arch, err)
		}

		rep.Runs = append(rep.Runs, rebalanceRunJSON{
			Arch: arch, Shards: rebalanceShards, HotShard: rebalanceHotShard,
			Action:        mig.Action,
			PreHotShare:   hotShare(pre.PerShardOps, rebalanceHotShard),
			PostHotShare:  hotShare(post.PerShardOps, rebalanceHotShard),
			MovedSubjects: mig.Subjects, MovedObjects: mig.Objects, MovedBytes: mig.Bytes,
			MigOps: mig.MigTotalOps, MigBytes: mig.MigBytes, MigUSD: mig.USD,
			Epoch: mig.Epoch,
		})
	}
	return rep, nil
}

// text renders the rebalance matrix for terminal use — the README's
// "Elastic capacity" table is generated from these numbers.
func (rep *rebalanceReportJSON) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rebalance: %d writers x %d batches at %d shards, %.0f%% of traffic on shard %d, seed %d\n",
		rep.Writers, rep.Batches, rep.Shards, 100*rep.HotFraction, rebalanceHotShard, rep.Seed)
	fmt.Fprintf(&b, "%-12s %7s %9s %10s %9s %9s %10s %10s %11s\n",
		"arch", "action", "pre-hot", "post-hot", "subjects", "objects", "mig-ops", "mig-bytes", "mig-usd")
	for _, r := range rep.Runs {
		fmt.Fprintf(&b, "%-12s %7s %8.1f%% %9.1f%% %9d %9d %10d %10d %11.6f\n",
			r.Arch, r.Action, 100*r.PreHotShare, 100*r.PostHotShare,
			r.MovedSubjects, r.MovedObjects, r.MigOps, r.MigBytes, r.MigUSD)
	}
	return b.String()
}
