package s3sdbsqs

import (
	"context"
	"fmt"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// TestPerClientQueuesAreIsolated verifies the paper's "each client has an
// SQS queue that it uses as a write-ahead log": two clients on one region,
// each with its own queue and daemon; each daemon commits only its own
// client's transactions, and both end up queryable in the shared domain.
func TestPerClientQueuesAreIsolated(t *testing.T) {
	ctx := context.Background()
	cl := cloud.New(cloud.Config{Seed: 3})

	stA, err := New(Config{Cloud: cl, ClientID: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := New(Config{Cloud: cl, ClientID: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if stA.Queue() == stB.Queue() {
		t.Fatalf("clients share a WAL queue: %q", stA.Queue())
	}

	if err := core.Put(ctx, stA, fileEvent("/from-alice", 0, "a")); err != nil {
		t.Fatal(err)
	}
	if err := core.Put(ctx, stB, fileEvent("/from-bob", 0, "b")); err != nil {
		t.Fatal(err)
	}

	// Only Alice's daemon runs: only her object commits.
	daemonA := NewCommitDaemon(stA, nil)
	pump(t, daemonA, cl)
	if _, err := stA.Get(ctx, "/from-alice"); err != nil {
		t.Fatalf("alice's commit missing: %v", err)
	}
	if _, err := stA.Get(ctx, "/from-bob"); err == nil {
		t.Fatal("bob's transaction committed by alice's daemon")
	}
	// Bob's log is intact.
	if n, _ := cl.SQS.Exact(stB.Queue()); n == 0 {
		t.Fatal("bob's WAL drained by the wrong daemon")
	}

	// Bob's daemon catches up; both visible through either store (shared
	// bucket + domain).
	daemonB := NewCommitDaemon(stB, nil)
	pump(t, daemonB, cl)
	for _, object := range []prov.ObjectID{"/from-alice", "/from-bob"} {
		if _, err := stB.Get(ctx, object); err != nil {
			t.Fatalf("get %s via bob: %v", object, err)
		}
	}
	all, err := core.CollectRecords(stA.Query(ctx, prov.Q1()))
	if err != nil || len(all) != 2 {
		t.Fatalf("shared domain has %d subjects, %v", len(all), err)
	}
}

// TestManyClientsInterleavedCommits drives several clients with interleaved
// daemon cycles — the paper's multi-writer cloud at small scale.
func TestManyClientsInterleavedCommits(t *testing.T) {
	ctx := context.Background()
	cl := cloud.New(cloud.Config{Seed: 4})
	const clients = 5

	stores := make([]*Store, clients)
	daemons := make([]*CommitDaemon, clients)
	for i := range stores {
		st, err := New(Config{Cloud: cl, ClientID: fmt.Sprintf("c%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		daemons[i] = NewCommitDaemon(st, nil)
	}

	for round := 0; round < 3; round++ {
		for i, st := range stores {
			object := fmt.Sprintf("/c%d/r%d", i, round)
			if err := core.Put(ctx, st, fileEvent(object, 0, object)); err != nil {
				t.Fatal(err)
			}
		}
		// Interleave: only some daemons run per round.
		for i, d := range daemons {
			if (round+i)%2 == 0 {
				if _, err := d.RunOnce(ctx, true); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Everyone drains in the end.
	for _, d := range daemons {
		pump(t, d, cl)
	}
	for i := range stores {
		for round := 0; round < 3; round++ {
			object := prov.ObjectID(fmt.Sprintf("/c%d/r%d", i, round))
			obj, err := stores[0].Get(ctx, object)
			if err != nil {
				t.Fatalf("get %s: %v", object, err)
			}
			if string(obj.Data) != string(object) {
				t.Fatalf("%s data = %q", object, obj.Data)
			}
		}
	}
}
