// Package meterkey is a golden fixture for the meterkey analyzer:
// billing meter keys and retry op-site names must be constants — or
// parameters of functions whose own call sites pass constants, the
// forwarding shape the services use for their shared fault-check
// helpers. Keys assembled from anything else (locals, loop variables,
// struct fields) are flagged where they are built.
package meterkey

import (
	"context"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
)

// opPrefix is a package constant; constant concatenation stays static.
const opPrefix = "fix/"

// bad builds keys at run time from non-parameter values.
func bad(ctx context.Context, m *billing.Meter, r *retry.Retrier, shards []string) {
	for _, shard := range shards {
		m.Op(billing.S3, "put-"+shard, billing.TierMutation) // want `meter key is built dynamically`
		m.OpErr(billing.S3, shard, billing.TierMutation)     // want `meter key is built dynamically`
	}
	key := opPrefix + shards[0]
	_ = r.Do(ctx, key, func() error { return nil }) // want `meter key is built dynamically`
}

// good uses literals and constants.
func good(ctx context.Context, m *billing.Meter, r *retry.Retrier) {
	m.Op(billing.S3, "PUT", billing.TierMutation)
	m.Op(billing.SimpleDB, opPrefix+"select", billing.TierBox)
	m.OpErr(billing.SQS, "SendMessage", billing.TierMessage)
	_ = r.Do(ctx, opPrefix+"flush", func() error { return nil })
}

// forward is a key forwarder: its op parameter becomes a meter key, so
// every call site of forward is held to the static-key rule itself —
// the shape the services' checkFault helpers use.
func forward(m *billing.Meter, op string) {
	m.Op(billing.SimpleDB, op, billing.TierBox)
	m.OpErr(billing.SimpleDB, op+"-late", billing.TierBox)
}

// callers shows the rule following the key to the forwarder's call
// sites: constants pass, a locally assembled key is flagged there.
func callers(m *billing.Meter, items []string) {
	forward(m, "GetAttributes")
	forward(m, opPrefix+"Select")
	for _, item := range items {
		forward(m, "item-"+item) // want `meter key is built dynamically`
	}
}

// pages forwards its op across the package boundary into core's pager,
// which retries every page under it: the pager is a seed, so pages
// becomes a forwarder and its call sites are held to the rule.
func pages(ctx context.Context, r *retry.Retrier, svc *sdb.Service, op string) {
	for range core.SelectPages(ctx, r, op, svc, "select itemName() from d") {
	}
}

// pagers shows the rule at core's pager and prefix-delete call sites.
func pagers(ctx context.Context, r *retry.Retrier, svc *sdb.Service, s3svc *s3.Service, shards []string) {
	shard := shards[0]
	pages(ctx, r, svc, "fix/select")
	pages(ctx, r, svc, "select-"+shard)                                 // want `meter key is built dynamically`
	for range core.ListPages(ctx, r, "list-"+shard, s3svc, "b", "p/") { // want `meter key is built dynamically`
	}
	_ = core.DeletePrefix(ctx, r, "fix/list", "delete-"+shard, s3svc, "b", "p/") // want `meter key is built dynamically`
}
