package sqs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/sim"
)

func newTestService(t *testing.T, servers, sample int) (*Service, *sim.VirtualClock, *billing.Meter) {
	t.Helper()
	clock := sim.NewVirtualClock()
	meter := &billing.Meter{}
	svc := New(Config{
		Servers:           servers,
		SampleSize:        sample,
		VisibilityTimeout: 30 * time.Second,
		Clock:             clock,
		RNG:               sim.NewRNG(1),
		Meter:             meter,
	})
	if err := svc.CreateQueue("wal"); err != nil {
		t.Fatalf("CreateQueue: %v", err)
	}
	return svc, clock, meter
}

// receiveAll drains every currently visible message by repeating
// ReceiveMessage, as the paper says clients must.
func receiveAll(t *testing.T, svc *Service, queue string) []Message {
	t.Helper()
	var out []Message
	misses := 0
	for misses < 50 {
		batch, err := svc.ReceiveMessage(queue, MaxReceiveBatch, 0)
		if err != nil {
			t.Fatalf("ReceiveMessage: %v", err)
		}
		if len(batch) == 0 {
			misses++
			continue
		}
		out = append(out, batch...)
	}
	return out
}

func TestSendReceiveDelete(t *testing.T) {
	svc, _, _ := newTestService(t, 1, 1) // single server: no sampling misses
	id, err := svc.SendMessage("wal", "hello")
	if err != nil {
		t.Fatalf("SendMessage: %v", err)
	}
	if id == "" {
		t.Fatal("empty message id")
	}
	msgs, err := svc.ReceiveMessage("wal", 10, 0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("ReceiveMessage: %v, %v", msgs, err)
	}
	m := msgs[0]
	if m.Body != "hello" || m.ID != id || m.ReceiptHandle == "" || m.ReceiveCount != 1 {
		t.Fatalf("message = %+v", m)
	}
	if err := svc.DeleteMessage("wal", m.ReceiptHandle); err != nil {
		t.Fatalf("DeleteMessage: %v", err)
	}
	if n, _ := svc.Exact("wal"); n != 0 {
		t.Fatalf("Exact after delete = %d", n)
	}
}

func TestMessageLimits(t *testing.T) {
	svc, _, _ := newTestService(t, 1, 1)
	if _, err := svc.SendMessage("wal", strings.Repeat("x", MaxMessageSize+1)); !errors.Is(err, ErrMessageTooLong) {
		t.Fatalf("oversize: %v", err)
	}
	if _, err := svc.SendMessage("wal", strings.Repeat("x", MaxMessageSize)); err != nil {
		t.Fatalf("exactly 8KB rejected: %v", err)
	}
	if _, err := svc.SendMessage("wal", string([]byte{0xff, 0xfe})); !errors.Is(err, ErrInvalidMessage) {
		t.Fatalf("invalid utf8: %v", err)
	}
	if _, err := svc.SendMessage("ghost", "x"); !errors.Is(err, ErrNoSuchQueue) {
		t.Fatalf("missing queue: %v", err)
	}
}

func TestQueueLifecycle(t *testing.T) {
	svc, _, _ := newTestService(t, 1, 1)
	if err := svc.CreateQueue("wal"); !errors.Is(err, ErrQueueExists) {
		t.Fatalf("duplicate queue: %v", err)
	}
	if err := svc.CreateQueue(""); !errors.Is(err, ErrInvalidName) {
		t.Fatalf("empty name: %v", err)
	}
	if got := svc.ListQueues(); len(got) != 1 || got[0] != "wal" {
		t.Fatalf("ListQueues = %v", got)
	}
	if err := svc.DeleteQueue("wal"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteQueue("wal"); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestVisibilityTimeoutHidesMessage(t *testing.T) {
	svc, clock, _ := newTestService(t, 1, 1)
	if _, err := svc.SendMessage("wal", "m"); err != nil {
		t.Fatal(err)
	}
	first, err := svc.ReceiveMessage("wal", 10, 30*time.Second)
	if err != nil || len(first) != 1 {
		t.Fatalf("first receive: %v, %v", first, err)
	}
	// While invisible, no other consumer may see it.
	for i := 0; i < 20; i++ {
		again, err := svc.ReceiveMessage("wal", 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != 0 {
			t.Fatalf("message visible during timeout: %v", again)
		}
	}
	// After the timeout it reappears (at-least-once delivery).
	clock.Advance(31 * time.Second)
	again, err := svc.ReceiveMessage("wal", 10, 0)
	if err != nil || len(again) != 1 {
		t.Fatalf("redelivery: %v, %v", again, err)
	}
	if again[0].ReceiveCount != 2 {
		t.Fatalf("ReceiveCount = %d, want 2", again[0].ReceiveCount)
	}
	if again[0].ReceiptHandle == first[0].ReceiptHandle {
		t.Fatal("receipt handle not rotated on redelivery")
	}
}

func TestDeleteWithStaleHandleAfterRedelivery(t *testing.T) {
	svc, clock, _ := newTestService(t, 1, 1)
	if _, err := svc.SendMessage("wal", "m"); err != nil {
		t.Fatal(err)
	}
	first, _ := svc.ReceiveMessage("wal", 10, time.Second)
	clock.Advance(2 * time.Second)
	second, _ := svc.ReceiveMessage("wal", 10, time.Minute)
	if len(first) != 1 || len(second) != 1 {
		t.Fatal("setup failed")
	}
	// The first consumer's handle is stale; deleting with it must not
	// remove the message out from under the second consumer.
	if err := svc.DeleteMessage("wal", first[0].ReceiptHandle); err != nil {
		t.Fatalf("stale delete returned error: %v", err)
	}
	if n, _ := svc.Exact("wal"); n != 1 {
		t.Fatalf("stale handle deleted a redelivered message")
	}
	// The current handle works.
	if err := svc.DeleteMessage("wal", second[0].ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	if n, _ := svc.Exact("wal"); n != 0 {
		t.Fatal("current handle failed to delete")
	}
}

func TestDeleteMessageIdempotent(t *testing.T) {
	svc, _, _ := newTestService(t, 1, 1)
	if _, err := svc.SendMessage("wal", "m"); err != nil {
		t.Fatal(err)
	}
	msgs, _ := svc.ReceiveMessage("wal", 10, 0)
	if err := svc.DeleteMessage("wal", msgs[0].ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	// Re-delete with the same handle: idempotent success.
	if err := svc.DeleteMessage("wal", msgs[0].ReceiptHandle); err != nil {
		t.Fatalf("re-delete errored: %v", err)
	}
	if err := svc.DeleteMessage("wal", ""); !errors.Is(err, ErrInvalidReceipt) {
		t.Fatalf("empty handle: %v", err)
	}
}

func TestSamplingCanMissMessages(t *testing.T) {
	// With 4 servers and a sample of 1, a single ReceiveMessage must
	// sometimes miss messages that exist (§2.3).
	svc, _, _ := newTestService(t, 4, 1)
	for i := 0; i < 8; i++ {
		if _, err := svc.SendMessage("wal", fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	missed := false
	for i := 0; i < 100; i++ {
		batch, err := svc.ReceiveMessage("wal", 10, time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) < 8 {
			missed = true
			break
		}
	}
	if !missed {
		t.Fatal("sampling never missed messages; partial receive not modeled")
	}
}

func TestRepeatedReceivesFindEverything(t *testing.T) {
	svc, _, _ := newTestService(t, 4, 2)
	want := make(map[string]bool)
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf("m%02d", i)
		want[body] = true
		if _, err := svc.SendMessage("wal", body); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]bool)
	for _, m := range receiveAll(t, svc, "wal") {
		got[m.Body] = true
	}
	for body := range want {
		if !got[body] {
			t.Fatalf("message %q never received", body)
		}
	}
}

func TestReceiveBatchCap(t *testing.T) {
	svc, _, _ := newTestService(t, 1, 1)
	for i := 0; i < 25; i++ {
		if _, err := svc.SendMessage("wal", "m"); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := svc.ReceiveMessage("wal", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) > MaxReceiveBatch {
		t.Fatalf("batch = %d, cap is %d", len(batch), MaxReceiveBatch)
	}
	batch, err = svc.ReceiveMessage("wal", 3, 0)
	if err != nil || len(batch) != 3 {
		t.Fatalf("requested 3: got %d, %v", len(batch), err)
	}
}

func TestBestEffortOrdering(t *testing.T) {
	svc, clock, _ := newTestService(t, 1, 1)
	for i := 0; i < 5; i++ {
		if _, err := svc.SendMessage("wal", fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	batch, _ := svc.ReceiveMessage("wal", 5, 0)
	for i, m := range batch {
		if m.Body != fmt.Sprintf("m%d", i) {
			t.Fatalf("single-server ordering broken: %v", batch)
		}
	}
}

func TestApproximateCount(t *testing.T) {
	svc, _, _ := newTestService(t, 4, 2)
	for i := 0; i < 100; i++ {
		if _, err := svc.SendMessage("wal", "m"); err != nil {
			t.Fatal(err)
		}
	}
	// The approximation fluctuates; averaged over many calls it should be
	// in the right ballpark.
	total := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		n, err := svc.ApproximateNumberOfMessages("wal")
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	avg := total / trials
	if avg < 50 || avg > 150 {
		t.Fatalf("approximate count average = %d, want around 100", avg)
	}
	if _, err := svc.ApproximateNumberOfMessages("ghost"); !errors.Is(err, ErrNoSuchQueue) {
		t.Fatalf("missing queue: %v", err)
	}
}

func TestRetentionReapsOldMessages(t *testing.T) {
	svc, clock, _ := newTestService(t, 1, 1)
	if _, err := svc.SendMessage("wal", "old"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(RetentionPeriod + time.Hour)
	if _, err := svc.SendMessage("wal", "new"); err != nil {
		t.Fatal(err)
	}
	batch, err := svc.ReceiveMessage("wal", 10, 0)
	if err != nil || len(batch) != 1 || batch[0].Body != "new" {
		t.Fatalf("after retention: %v, %v", batch, err)
	}
	if n, _ := svc.Exact("wal"); n != 1 {
		t.Fatalf("Exact = %d, want 1 (old message reaped)", n)
	}
}

func TestMeteringAndStorage(t *testing.T) {
	svc, _, meter := newTestService(t, 1, 1)
	meter.Reset()
	if _, err := svc.SendMessage("wal", "12345"); err != nil {
		t.Fatal(err)
	}
	u := meter.Snapshot()
	if got := u.OpCount(billing.SQS, "SendMessage"); got != 1 {
		t.Fatalf("SendMessage ops = %d", got)
	}
	if got := u.BytesIn(billing.SQS); got != 5 {
		t.Fatalf("BytesIn = %d", got)
	}
	if got := u.Storage(billing.SQS); got != 5 {
		t.Fatalf("Storage = %d", got)
	}
	msgs, _ := svc.ReceiveMessage("wal", 1, 0)
	if got := meter.Snapshot().BytesOut(billing.SQS); got != 5 {
		t.Fatalf("BytesOut = %d", got)
	}
	if err := svc.DeleteMessage("wal", msgs[0].ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	if got := meter.Snapshot().Storage(billing.SQS); got != 0 {
		t.Fatalf("Storage after delete = %d", got)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	svc, _, _ := newTestService(t, 4, 4)
	const producers, perProducer = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := svc.SendMessage("wal", fmt.Sprintf("p%d-%d", p, i)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(p)
	}
	var mu sync.Mutex
	seen := make(map[string]int)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				batch, err := svc.ReceiveMessage("wal", 10, time.Hour)
				if err != nil {
					t.Errorf("receive: %v", err)
					return
				}
				for _, m := range batch {
					mu.Lock()
					seen[m.Body]++
					mu.Unlock()
					if err := svc.DeleteMessage("wal", m.ReceiptHandle); err != nil {
						t.Errorf("delete: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	// With an hour-long visibility timeout and prompt deletes, no message
	// should have been processed twice.
	for body, count := range seen {
		if count != 1 {
			t.Fatalf("message %q processed %d times despite visibility lock", body, count)
		}
	}
}

// fullSortPick is the reference receive selection: collect every visible
// candidate on the sampled servers, sort them all by (sentAt, id), keep
// the first max.
func fullSortPick(q *queue, sampled []bool, now time.Time, max int) []*message {
	var candidates []*message
	for _, m := range q.messages {
		if sampled[m.server] && !m.invisibleTill.After(now) {
			candidates = append(candidates, m)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if !candidates[i].sentAt.Equal(candidates[j].sentAt) {
			return candidates[i].sentAt.Before(candidates[j].sentAt)
		}
		return candidates[i].id < candidates[j].id
	})
	if len(candidates) > max {
		candidates = candidates[:max]
	}
	return candidates
}

// drainTranscript drives one seeded send/receive/delete/advance mix
// through a service using pick for receive selection, and returns every
// observable result plus the final meter.
func drainTranscript(seed int64, pick func(*queue, []bool, time.Time, int) []*message) (string, billing.Usage, map[string]int) {
	clock := sim.NewVirtualClock()
	meter := &billing.Meter{}
	svc := New(Config{
		Servers: 4, SampleSize: 2, VisibilityTimeout: 30 * time.Second,
		Retention: 20 * time.Minute,
		Clock:     clock, RNG: sim.NewRNG(seed), Meter: meter,
	})
	svc.pick = pick
	if err := svc.CreateQueue("wal"); err != nil {
		panic(err)
	}
	drive := rand.New(rand.NewSource(seed))
	var out strings.Builder
	var handles []string
	coverage := make(map[string]int)
	for step := 0; step < 3000; step++ {
		switch op := drive.Intn(10); {
		case op < 4:
			id, err := svc.SendMessage("wal", strings.Repeat("x", 1+drive.Intn(64)))
			fmt.Fprintf(&out, "send %s %v\n", id, err)
		case op < 7:
			vis := []time.Duration{0, time.Second, 2 * time.Minute}[drive.Intn(3)]
			batch, err := svc.ReceiveMessage("wal", 1+drive.Intn(MaxReceiveBatch), vis)
			fmt.Fprintf(&out, "recv %v", err)
			for _, m := range batch {
				fmt.Fprintf(&out, " %s/%s/%d", m.ID, m.ReceiptHandle, m.ReceiveCount)
				handles = append(handles, m.ReceiptHandle)
				if m.ReceiveCount > 1 {
					coverage["redelivery"]++
				}
			}
			out.WriteByte('\n')
		case op < 9:
			if len(handles) == 0 {
				continue
			}
			// Mostly fresh handles, sometimes a stale or re-used one.
			i := len(handles) - 1 - drive.Intn(min(len(handles), 8))
			if drive.Intn(4) == 0 {
				i = drive.Intn(len(handles))
			}
			before, _ := svc.Exact("wal")
			err := svc.DeleteMessage("wal", handles[i])
			after, _ := svc.Exact("wal")
			if err == nil && after == before {
				coverage["stale-or-repeat"]++
			}
			fmt.Fprintf(&out, "del %s %v %d\n", handles[i], err, after)
		default:
			d := time.Duration(drive.Intn(90)) * time.Second
			before, _ := svc.Exact("wal")
			clock.Advance(d)
			after, _ := svc.Exact("wal")
			if after < before {
				coverage["reaped"]++
			}
			fmt.Fprintf(&out, "advance %v %d\n", d, after)
		}
	}
	return out.String(), meter.Snapshot(), coverage
}

// TestReceiveSelectionMatchesFullSort pins the bounded top-k receive
// selection and the receipt index to the reference full-sort scan: the
// same seeded mix of sends, sampled receives, visibility timeouts,
// redeliveries, stale and repeated deletes and retention reaping yields
// identical batches, receipts, RNG draws and meters.
func TestReceiveSelectionMatchesFullSort(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 2009} {
		got, gotUse, cov := drainTranscript(seed, oldestVisible)
		want, wantUse, _ := drainTranscript(seed, fullSortPick)
		if got != want {
			t.Fatalf("seed %d: transcripts differ:\n%s", seed, firstDiff(got, want))
		}
		if !reflect.DeepEqual(gotUse, wantUse) {
			t.Fatalf("seed %d: meters differ:\n got %v\nwant %v", seed, gotUse, wantUse)
		}
		if cov["redelivery"] == 0 || cov["stale-or-repeat"] == 0 || cov["reaped"] == 0 {
			t.Fatalf("seed %d: scenario did not exercise redelivery, stale deletes and reaping: %v", seed, cov)
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(al), len(bl))
}
