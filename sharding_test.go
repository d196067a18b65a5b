package passcloud

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// driveShardWorkload runs the same small scenario against any client.
func driveShardWorkload(t *testing.T, ctx context.Context, c *Client) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		must(c.Ingest(ctx, fmt.Sprintf("/data/set%d", i), []byte(fmt.Sprintf("payload-%d", i))))
	}
	p := c.Exec(nil, ProcessSpec{Name: "blast", Argv: []string{"blast"}})
	must(p.Read("/data/set0"))
	must(p.Read("/data/set3"))
	must(p.Write("/out/hits", []byte("hits")))
	must(p.Close(ctx, "/out/hits"))
	q := c.Exec(nil, ProcessSpec{Name: "summarize"})
	must(q.Read("/out/hits"))
	must(q.Write("/out/summary", []byte("sum")))
	must(q.Close(ctx, "/out/summary"))
	p.Exit()
	q.Exit()
	must(c.Sync(ctx))
	c.Settle()
}

// sortedSearchRefs canonicalizes one Search's result refs.
func sortedSearchRefs(t *testing.T, ctx context.Context, c *Client, spec QuerySpec) []string {
	t.Helper()
	res, err := c.Search(ctx, spec)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	var out []string
	for _, e := range res.Entries {
		out = append(out, e.Ref.String())
	}
	sort.Strings(out)
	return out
}

// TestShardedClientMatchesUnsharded: the public surface must answer
// identically with Shards set — sharding is a deployment knob, not an API
// change.
func TestShardedClientMatchesUnsharded(t *testing.T) {
	ctx := context.Background()
	for _, arch := range []Architecture{S3Only, S3SimpleDB, S3SimpleDBSQS} {
		t.Run(arch.String(), func(t *testing.T) {
			flat, err := New(Options{Architecture: arch, Seed: 41})
			if err != nil {
				t.Fatal(err)
			}
			shardedC, err := New(Options{Architecture: arch, Seed: 41, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			driveShardWorkload(t, ctx, flat)
			driveShardWorkload(t, ctx, shardedC)

			specs := []QuerySpec{
				{},
				{Tool: "blast", Type: "file", RefsOnly: true},
				{Tool: "blast", Type: "file", Direction: TraverseDescendants, RefsOnly: true},
				{RefPrefix: "/data/", RefsOnly: true},
				{Refs: []Ref{{Object: "/out/summary", Version: 1}}, Direction: TraverseAncestors, RefsOnly: true},
			}
			for i, spec := range specs {
				want := sortedSearchRefs(t, ctx, flat, spec)
				got := sortedSearchRefs(t, ctx, shardedC, spec)
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Errorf("spec %d: unsharded %v, sharded %v", i, want, got)
				}
			}

			// Reads, lineage guards and deletes route transparently.
			obj, err := shardedC.Get(ctx, "/out/hits")
			if err != nil || string(obj.Data) != "hits" || len(obj.Records) == 0 {
				t.Fatalf("sharded Get: %v %q (%d records)", err, obj.Data, len(obj.Records))
			}
			var hasDeps *ErrHasDependents
			if err := shardedC.SafeDelete(ctx, "/data/set0"); !errors.As(err, &hasDeps) {
				t.Fatalf("SafeDelete of consumed input: %v, want ErrHasDependents", err)
			}
			if err := shardedC.SafeDelete(ctx, "/data/set7"); err != nil {
				t.Fatalf("SafeDelete of unused input: %v", err)
			}

			// Explain works through the router and predicts a real plan.
			plan, err := shardedC.Explain(QuerySpec{RefPrefix: "/data/", RefsOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Strategy == "" || len(plan.Steps) == 0 {
				t.Fatalf("empty sharded plan: %+v", plan)
			}
		})
	}
}

// TestTenantIsolation: two tenants of one region share nothing — neither
// data nor billing.
func TestTenantIsolation(t *testing.T) {
	ctx := context.Background()
	region, err := NewRegion(Options{Architecture: S3SimpleDB, Seed: 5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := region.NewTenantClient("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := region.NewTenantClient("bob", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Ingest(ctx, "/secret/a", []byte("alice-data")); err != nil {
		t.Fatal(err)
	}
	if err := alice.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	aliceBill := alice.TenantUsage()
	if aliceBill.S3Ops == 0 {
		t.Fatal("alice's writes were not billed to her tenant keys")
	}

	if _, err := bob.Get(ctx, "/secret/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tenant bob can read tenant alice's object: %v", err)
	}
	res, err := bob.Search(ctx, QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 0 {
		t.Fatalf("tenant bob sees %d of alice's provenance entries", len(res.Entries))
	}

	// Billing isolation: bob's reads bill bob's keys (AWS charges reads),
	// never alice's; the region bill covers both.
	if got := alice.TenantUsage(); got != aliceBill {
		t.Fatalf("bob's activity changed alice's bill: %+v -> %+v", aliceBill, got)
	}
	if bob.TenantUsage().S3Ops+bob.TenantUsage().SimpleDBOps == 0 {
		t.Fatal("bob's reads were not billed to his tenant keys")
	}
	if region.Usage().S3Ops < aliceBill.S3Ops+bob.TenantUsage().S3Ops {
		t.Fatal("region bill misses tenant usage")
	}
}

// TestShardedRegionSharedClients: two clients of one tenant see each
// other's provenance, exactly like clients of an unsharded region.
func TestShardedRegionSharedClients(t *testing.T) {
	ctx := context.Background()
	region, err := NewRegion(Options{Architecture: S3SimpleDB, Seed: 6, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	producer, err := region.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := region.NewClient("")
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Ingest(ctx, "/shared/dataset", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := producer.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	region.Settle()
	obj, err := consumer.Fetch(ctx, "/shared/dataset")
	if err != nil {
		t.Fatalf("consumer cannot fetch shared object: %v", err)
	}
	if string(obj.Data) != "payload" {
		t.Fatalf("fetched %q", obj.Data)
	}
}
