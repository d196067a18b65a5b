package passcloud

// Context-cancellation tests for the batch-first store contract: a context
// cancelled mid-batch must abort the PutBatch on every architecture
// without corrupting durable state. The batch-replay contract (pass.System
// marks nothing flushed on error) then lets a retry with a live context
// persist everything, and verified reads must succeed afterwards.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// cancelAfterChecks is a context that reports cancellation only after its
// Err method has been consulted n times — a deterministic way to land the
// cancellation in the middle of a batch, between cloud calls, without
// depending on wall-clock timing.
type cancelAfterChecks struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *cancelAfterChecks) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// cancelBatch builds a ten-event batch: nine transient ancestors and one
// file that closes the chain.
func cancelBatch() []pass.FlushEvent {
	var batch []pass.FlushEvent
	var inputs []prov.Ref
	for i := 0; i < 9; i++ {
		ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("proc/%d/stage", i+1)), Version: 0}
		batch = append(batch, pass.FlushEvent{Ref: ref, Type: prov.TypeProcess, Records: []prov.Record{
			prov.NewString(ref, prov.AttrType, prov.TypeProcess),
			prov.NewString(ref, prov.AttrName, "stage"),
		}})
		inputs = append(inputs, ref)
	}
	fileRef := prov.Ref{Object: "/pipeline/out", Version: 0}
	records := []prov.Record{
		prov.NewString(fileRef, prov.AttrType, prov.TypeFile),
		prov.NewString(fileRef, prov.AttrName, "/pipeline/out"),
	}
	for _, in := range inputs {
		records = append(records, prov.NewInput(fileRef, in))
	}
	batch = append(batch, pass.FlushEvent{Ref: fileRef, Type: prov.TypeFile, Data: []byte("result"), Records: records})
	return batch
}

func TestPutBatchCancellationAborts(t *testing.T) {
	type env struct {
		cloud *cloud.Cloud
		store core.Store
		// settle runs any background machinery needed before reads.
		settle func(ctx context.Context) error
	}
	builds := map[string]func(t *testing.T) *env{
		"s3": func(t *testing.T) *env {
			cl := cloud.New(cloud.Config{Seed: 7})
			st, err := s3only.New(s3only.Config{Cloud: cl})
			if err != nil {
				t.Fatal(err)
			}
			return &env{cloud: cl, store: st}
		},
		"s3+sdb": func(t *testing.T) *env {
			cl := cloud.New(cloud.Config{Seed: 7})
			st, err := s3sdb.New(s3sdb.Config{Cloud: cl})
			if err != nil {
				t.Fatal(err)
			}
			return &env{cloud: cl, store: st}
		},
		"s3+sdb+sqs": func(t *testing.T) *env {
			cl := cloud.New(cloud.Config{Seed: 7})
			st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl})
			if err != nil {
				t.Fatal(err)
			}
			daemon := s3sdbsqs.NewCommitDaemon(st, nil)
			return &env{cloud: cl, store: st, settle: func(ctx context.Context) error {
				for i := 0; i < 10; i++ {
					n, err := daemon.RunOnce(ctx, true)
					if err != nil {
						return err
					}
					if n == 0 && daemon.PendingTransactions() == 0 {
						return nil
					}
					cl.Settle()
				}
				return errors.New("daemon did not drain")
			}}
		},
	}

	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			e := build(t)
			batch := cancelBatch()

			// Cancel a few checks into the batch: the call must surface
			// context.Canceled, not mask it or hang.
			cctx := &cancelAfterChecks{Context: context.Background(), n: 4}
			if err := e.store.PutBatch(cctx, batch); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled PutBatch: err = %v, want context.Canceled", err)
			}

			// The retry contract: replaying the whole batch with a live
			// context must leave fully consistent, verified state — the
			// partial first attempt (buffered records, an uncommitted WAL
			// transaction, a stranded provenance item) must not corrupt it.
			ctx := context.Background()
			if err := e.store.PutBatch(ctx, batch); err != nil {
				t.Fatalf("retried PutBatch: %v", err)
			}
			if err := core.SyncStore(ctx, e.store); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if e.settle != nil {
				if err := e.settle(ctx); err != nil {
					t.Fatal(err)
				}
			}
			e.cloud.Settle()

			obj, err := e.store.Get(ctx, "/pipeline/out")
			if err != nil {
				t.Fatalf("Get after retry: %v", err)
			}
			if string(obj.Data) != "result" {
				t.Fatalf("data = %q", obj.Data)
			}
			// The whole ancestor chain made it, not a half-verified prefix.
			q, ok := e.store.(core.Querier)
			if !ok {
				t.Fatal("store is not a Querier")
			}
			all, err := core.CollectRecords(q.Query(ctx, prov.Q1()))
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range batch {
				got, ok := all[ev.Ref]
				if !ok {
					t.Fatalf("subject %v missing after retried batch", ev.Ref)
				}
				// And exactly once: the aborted first attempt must not
				// leave buffered records that the replay duplicates.
				if len(got) != len(ev.Records) {
					t.Fatalf("subject %v has %d records after retry, want %d (replay duplication)",
						ev.Ref, len(got), len(ev.Records))
				}
			}
		})
	}
}

// TestCancelledCloseKeepsVersionsPending exercises the same contract
// through the public API: a cancelled Close leaves every version pending
// (nothing marked flushed), and a later Close persists the whole chain.
func TestCancelledCloseKeepsVersionsPending(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDB, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, "/in", []byte("source")); err != nil {
		t.Fatal(err)
	}
	p := c.Exec(nil, ProcessSpec{Name: "tool", Argv: []string{"tool"}})
	if err := p.Read("/in"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write("/out", []byte("derived")); err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Close(cancelled, "/out"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Close: err = %v, want context.Canceled", err)
	}
	if _, err := c.Get(ctx, "/out"); !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNoProvenance) {
		t.Fatalf("object visible after cancelled close: %v", err)
	}

	if err := p.Close(ctx, "/out"); err != nil {
		t.Fatalf("retried Close: %v", err)
	}
	obj, err := c.Get(ctx, "/out")
	if err != nil {
		t.Fatalf("Get after retried close: %v", err)
	}
	if string(obj.Data) != "derived" {
		t.Fatalf("data = %q", obj.Data)
	}
}
