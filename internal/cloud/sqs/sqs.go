// Package sqs simulates the Amazon Simple Queue Service as the paper
// describes it (§2.3, January-2009 snapshot): a distributed message queue
// with at-least-once delivery, server sampling, visibility timeouts, and
// four-day retention.
//
// The semantics the WAL protocol (architecture 3) depends on are all here:
//
//   - messages are at most 8 KB of Unicode text;
//   - ReceiveMessage returns at most 10 messages, sampled from a subset of
//     the queue's servers, so one call may miss messages that exist ("the
//     clients need to repeat these requests until they receive all the
//     necessary messages");
//   - a received message is hidden from other consumers for the visibility
//     timeout; it reappears unless DeleteMessage is called with the receipt
//     handle — which is how SQS "ensures that there is only one client
//     processing a message at a single point of time";
//   - GetQueueAttributes:ApproximateNumberOfMessages is an approximation,
//     counted over a sample of servers;
//   - messages older than RetentionPeriod (4 days) are deleted automatically
//     ("SQS automatically deletes messages older than four days").
package sqs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"passcloud/internal/cloud/awserr"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/sim"
)

// Limits and defaults from the paper's AWS snapshot.
const (
	// MaxMessageSize is the 8 KB message size limit (§2.3).
	MaxMessageSize = 8 << 10
	// MaxReceiveBatch is the most messages one ReceiveMessage returns.
	MaxReceiveBatch = 10
	// RetentionPeriod is how long undelivered messages survive: 4 days.
	RetentionPeriod = 4 * 24 * time.Hour
	// DefaultVisibilityTimeout hides received messages from other
	// consumers for 30 seconds unless overridden per receive.
	DefaultVisibilityTimeout = 30 * time.Second
	// defaultServers is the number of simulated storage servers a queue's
	// messages spread over; ReceiveMessage samples a subset.
	defaultServers = 4
)

// Error codes mirroring the AWS SQS error model.
var (
	// ErrNoSuchQueue is returned for operations on a missing queue.
	ErrNoSuchQueue = errors.New("AWS.SimpleQueueService.NonExistentQueue")
	// ErrQueueExists is returned by CreateQueue on a name collision.
	ErrQueueExists = errors.New("QueueAlreadyExists")
	// ErrMessageTooLong is returned by SendMessage for bodies over 8 KB.
	ErrMessageTooLong = errors.New("MessageTooLong")
	// ErrInvalidMessage is returned for non-UTF-8 (non-Unicode) bodies.
	ErrInvalidMessage = errors.New("InvalidMessageContents")
	// ErrInvalidReceipt is returned by DeleteMessage for an empty
	// receipt handle. Unknown and stale handles succeed idempotently.
	ErrInvalidReceipt = errors.New("ReceiptHandleIsInvalid")
	// ErrInvalidName is returned for malformed queue names.
	ErrInvalidName = errors.New("InvalidParameterValue")
)

// APIError carries the failing operation and queue alongside the code.
type APIError struct {
	Op    string
	Queue string
	Err   error
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("sqs: %s %s: %v", e.Op, e.Queue, e.Err)
}

// Unwrap exposes the sentinel code to errors.Is.
func (e *APIError) Unwrap() error { return e.Err }

func opErr(op, queue string, code error) error {
	return &APIError{Op: op, Queue: queue, Err: code}
}

// Message is a received message.
type Message struct {
	// ID identifies the message across receives.
	ID string
	// Body is the message payload.
	Body string
	// ReceiptHandle authorizes deletion; it is minted per receive.
	ReceiptHandle string
	// SentAt is when the message was enqueued.
	SentAt time.Time
	// ReceiveCount is how many times the message has been delivered,
	// including this delivery. Values above 1 mean redelivery.
	ReceiveCount int
}

// message is the stored form.
type message struct {
	id            string
	body          string
	sentAt        time.Time
	invisibleTill time.Time
	receipt       string // current receipt handle; rotates per receive
	receiveCount  int
	server        int // which simulated server holds it
}

// queue is one named queue spread over several simulated servers.
type queue struct {
	name     string
	messages map[string]*message // by message id
	// receipts maps each message's current receipt handle to its id, so
	// DeleteMessage finds its target without scanning the queue.
	receipts map[string]string
	nextSeq  int64
	// oldestSent lower-bounds the send time of every live message, so the
	// retention reaper can skip scanning until something could actually
	// have expired. Zero means unknown (recompute on next reap).
	oldestSent time.Time
}

// Config parameterizes the service.
type Config struct {
	// Servers is the number of simulated storage servers per queue
	// (default 4). ReceiveMessage samples a strict subset when Servers > 1,
	// producing the partial-receive behaviour the paper describes.
	Servers int
	// SampleSize is how many servers one ReceiveMessage samples
	// (default Servers-1, minimum 1).
	SampleSize int
	// VisibilityTimeout applied when a receive does not override it.
	VisibilityTimeout time.Duration
	// Retention overrides the 4-day retention period (tests only).
	Retention time.Duration
	// Clock is the time source. Required.
	Clock sim.Clock
	// RNG drives sampling and receipt-handle minting. Required.
	RNG *sim.RNG
	// Meter receives billing events. Required.
	Meter *billing.Meter
	// Faults optionally injects service-side failures (throttles, denials,
	// lost responses) per operation. Nil injects nothing.
	Faults *sim.FaultPlan
}

// Service is a simulated SQS endpoint.
type Service struct {
	cfg Config

	mu     sync.Mutex
	queues map[string]*queue
	nextID int64
	// pick selects a receive batch; oldestVisible outside tests.
	pick func(q *queue, sampled []bool, now time.Time, max int) []*message
}

// New returns an empty SQS service.
func New(cfg Config) *Service {
	if cfg.Clock == nil {
		panic("sqs: Config.Clock is required")
	}
	if cfg.RNG == nil {
		panic("sqs: Config.RNG is required")
	}
	if cfg.Meter == nil {
		panic("sqs: Config.Meter is required")
	}
	if cfg.Servers < 1 {
		cfg.Servers = defaultServers
	}
	if cfg.SampleSize < 1 {
		cfg.SampleSize = cfg.Servers - 1
		if cfg.SampleSize < 1 {
			cfg.SampleSize = 1
		}
	}
	if cfg.SampleSize > cfg.Servers {
		cfg.SampleSize = cfg.Servers
	}
	if cfg.VisibilityTimeout <= 0 {
		cfg.VisibilityTimeout = DefaultVisibilityTimeout
	}
	if cfg.Retention <= 0 {
		cfg.Retention = RetentionPeriod
	}
	return &Service{cfg: cfg, queues: make(map[string]*queue), pick: oldestVisible}
}

// Meter returns the service's billing meter.
func (s *Service) Meter() *billing.Meter { return s.cfg.Meter }

// VisibilityTimeout returns the configured default visibility timeout.
func (s *Service) VisibilityTimeout() time.Duration { return s.cfg.VisibilityTimeout }

// CreateQueue creates a queue. Queue URLs in real SQS are unique per user;
// here the name is the URL.
func (s *Service) CreateQueue(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Meter.Op(billing.SQS, "CreateQueue", billing.TierMessage)
	if len(name) < 1 || len(name) > 80 {
		return opErr("CreateQueue", name, ErrInvalidName)
	}
	if _, ok := s.queues[name]; ok {
		return opErr("CreateQueue", name, ErrQueueExists)
	}
	s.queues[name] = &queue{name: name, messages: make(map[string]*message), receipts: make(map[string]string)}
	return nil
}

// DeleteQueue removes a queue and all its messages. Idempotent.
func (s *Service) DeleteQueue(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Meter.Op(billing.SQS, "DeleteQueue", billing.TierMessage)
	if q, ok := s.queues[name]; ok {
		var resident int64
		for _, m := range q.messages {
			resident += int64(len(m.body))
		}
		s.cfg.Meter.StorageDelta(billing.SQS, -resident)
	}
	delete(s.queues, name)
	return nil
}

// ListQueues returns all queue names, sorted.
func (s *Service) ListQueues() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Meter.Op(billing.SQS, "ListQueues", billing.TierMessage)
	out := make([]string, 0, len(s.queues))
	for name := range s.queues {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// checkFault consults the fault plan for op ("sqs/<op>"). A fail-fast fault
// meters the failed request under the error-suffixed key and returns its
// error; ackLoss tells the caller to apply the op fully and then return a
// timeout anyway. Caller holds s.mu.
func (s *Service) checkFault(op, queueName string) (failErr error, ackLoss bool) {
	switch s.cfg.Faults.CheckOp("sqs/" + op) {
	case sim.OpFailTransient:
		s.cfg.Meter.OpErr(billing.SQS, op, billing.TierMessage)
		return opErr(op, queueName, awserr.ErrThrottled), false
	case sim.OpFailPermanent:
		s.cfg.Meter.OpErr(billing.SQS, op, billing.TierMessage)
		return opErr(op, queueName, awserr.ErrAccessDenied), false
	case sim.OpAckLoss:
		return nil, true
	}
	return nil, false
}

// SendMessage enqueues body and returns the message ID. Bodies must be
// valid Unicode text of at most 8 KB (§2.3).
func (s *Service) SendMessage(queueName, body string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fail := func(code error) (string, error) {
		s.cfg.Meter.OpErr(billing.SQS, "SendMessage", billing.TierMessage)
		return "", opErr("SendMessage", queueName, code)
	}
	q, ok := s.queues[queueName]
	if !ok {
		return fail(ErrNoSuchQueue)
	}
	if len(body) > MaxMessageSize {
		return fail(ErrMessageTooLong)
	}
	if !utf8.ValidString(body) {
		return fail(ErrInvalidMessage)
	}
	failErr, ackLoss := s.checkFault("SendMessage", queueName)
	if failErr != nil {
		return "", failErr
	}
	s.cfg.Meter.Op(billing.SQS, "SendMessage", billing.TierMessage)
	s.reapExpired(q)

	s.nextID++
	id := fmt.Sprintf("msg-%08d", s.nextID)
	q.nextSeq++
	now := s.cfg.Clock.Now()
	m := &message{
		id:     id,
		body:   body,
		sentAt: now,
		server: s.cfg.RNG.Intn(s.cfg.Servers),
	}
	q.messages[id] = m
	if q.oldestSent.IsZero() || now.Before(q.oldestSent) {
		q.oldestSent = now
	}
	s.cfg.Meter.In(billing.SQS, int64(len(body)))
	s.cfg.Meter.StorageDelta(billing.SQS, int64(len(body)))
	if ackLoss {
		// The message landed; the response carrying its ID was lost. A
		// retried send enqueues a duplicate — at-least-once delivery means
		// consumers must already tolerate that.
		return "", opErr("SendMessage", queueName, awserr.ErrRequestTimeout)
	}
	return id, nil
}

// ReceiveMessage returns up to max visible messages (capped at 10), sampled
// from a subset of the queue's servers. Returned messages become invisible
// for visibility (zero means the queue default). An empty result does not
// mean the queue is empty — repeat the call (§2.3).
func (s *Service) ReceiveMessage(queueName string, max int, visibility time.Duration) ([]Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[queueName]
	if !ok {
		s.cfg.Meter.OpErr(billing.SQS, "ReceiveMessage", billing.TierMessage)
		return nil, opErr("ReceiveMessage", queueName, ErrNoSuchQueue)
	}
	failErr, ackLoss := s.checkFault("ReceiveMessage", queueName)
	if failErr != nil {
		return nil, failErr
	}
	s.cfg.Meter.Op(billing.SQS, "ReceiveMessage", billing.TierMessage)
	if max <= 0 || max > MaxReceiveBatch {
		max = MaxReceiveBatch
	}
	if visibility <= 0 {
		visibility = s.cfg.VisibilityTimeout
	}
	s.reapExpired(q)
	now := s.cfg.Clock.Now()

	// Sample a subset of servers; only their messages are candidates.
	sampled := make([]bool, s.cfg.Servers)
	for _, idx := range s.cfg.RNG.Perm(s.cfg.Servers)[:s.cfg.SampleSize] {
		sampled[idx] = true
	}
	candidates := s.pick(q, sampled, now, max)

	var out []Message
	var outBytes int64
	for _, m := range candidates {
		m.invisibleTill = now.Add(visibility)
		delete(q.receipts, m.receipt)
		m.receipt = s.cfg.RNG.Hex(16)
		q.receipts[m.receipt] = m.id
		m.receiveCount++
		out = append(out, Message{
			ID:            m.id,
			Body:          m.body,
			ReceiptHandle: m.receipt,
			SentAt:        m.sentAt,
			ReceiveCount:  m.receiveCount,
		})
		outBytes += int64(len(m.body))
	}
	s.cfg.Meter.Out(billing.SQS, outBytes)
	if ackLoss {
		// The receive happened server-side — the returned messages are now
		// invisible — but the response was lost. They reappear once the
		// visibility timeout lapses, exactly like a consumer that died
		// mid-processing.
		return nil, opErr("ReceiveMessage", queueName, awserr.ErrRequestTimeout)
	}
	return out, nil
}

// DeleteMessage removes a message using the receipt handle from its most
// recent receive. A handle that matches no message — the message was
// already deleted, or was redelivered meanwhile so the handle is stale —
// succeeds without effect, as in real SQS; only an empty handle fails
// with ErrInvalidReceipt.
func (s *Service) DeleteMessage(queueName, receiptHandle string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[queueName]
	if !ok {
		s.cfg.Meter.OpErr(billing.SQS, "DeleteMessage", billing.TierMessage)
		return opErr("DeleteMessage", queueName, ErrNoSuchQueue)
	}
	if receiptHandle == "" {
		s.cfg.Meter.OpErr(billing.SQS, "DeleteMessage", billing.TierMessage)
		return opErr("DeleteMessage", queueName, ErrInvalidReceipt)
	}
	failErr, ackLoss := s.checkFault("DeleteMessage", queueName)
	if failErr != nil {
		return failErr
	}
	s.cfg.Meter.Op(billing.SQS, "DeleteMessage", billing.TierMessage)
	// Under ack loss the delete still applies below; a retried delete of the
	// now-missing handle succeeds idempotently.
	if id, ok := q.receipts[receiptHandle]; ok {
		s.cfg.Meter.StorageDelta(billing.SQS, -int64(len(q.messages[id].body)))
		delete(q.messages, id)
		delete(q.receipts, receiptHandle)
	}
	if ackLoss {
		return opErr("DeleteMessage", queueName, awserr.ErrRequestTimeout)
	}
	// An unknown handle is either already deleted or stale. Real SQS
	// succeeds in both cases, and the WAL protocol depends on re-deletes
	// being harmless.
	return nil
}

// ApproximateNumberOfMessages estimates the number of visible messages by
// counting a server sample and scaling — "the result of this operation is an
// approximation" (§2.3).
func (s *Service) ApproximateNumberOfMessages(queueName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[queueName]
	if !ok {
		s.cfg.Meter.OpErr(billing.SQS, "GetQueueAttributes", billing.TierMessage)
		return 0, opErr("GetQueueAttributes", queueName, ErrNoSuchQueue)
	}
	failErr, ackLoss := s.checkFault("GetQueueAttributes", queueName)
	if failErr != nil {
		return 0, failErr
	}
	s.cfg.Meter.Op(billing.SQS, "GetQueueAttributes", billing.TierMessage)
	if ackLoss {
		return 0, opErr("GetQueueAttributes", queueName, awserr.ErrRequestTimeout)
	}
	s.reapExpired(q)
	now := s.cfg.Clock.Now()

	sampled := make(map[int]bool, s.cfg.SampleSize)
	for _, idx := range s.cfg.RNG.Perm(s.cfg.Servers)[:s.cfg.SampleSize] {
		sampled[idx] = true
	}
	count := 0
	for _, m := range q.messages {
		if sampled[m.server] && !m.invisibleTill.After(now) {
			count++
		}
	}
	// Scale the sample to the full server set.
	return count * s.cfg.Servers / s.cfg.SampleSize, nil
}

// Exact returns the true number of messages (visible or not) in the queue.
// Tests and invariants use it; protocol code must use the approximation.
func (s *Service) Exact(queueName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[queueName]
	if !ok {
		return 0, opErr("Exact", queueName, ErrNoSuchQueue)
	}
	s.reapExpired(q)
	return len(q.messages), nil
}

// reapExpired drops messages older than the retention period. Caller holds
// s.mu. Reaping is lazy (on access), which is indistinguishable from a
// background process under virtual time. The oldestSent horizon makes the
// no-expiry common case O(1): nothing can have expired while the oldest
// message is younger than the retention period.
func (s *Service) reapExpired(q *queue) {
	now := s.cfg.Clock.Now()
	if len(q.messages) == 0 {
		q.oldestSent = time.Time{}
		return
	}
	if !q.oldestSent.IsZero() && now.Sub(q.oldestSent) <= s.cfg.Retention {
		return
	}
	oldest := time.Time{}
	for id, m := range q.messages {
		if now.Sub(m.sentAt) > s.cfg.Retention {
			s.cfg.Meter.StorageDelta(billing.SQS, -int64(len(m.body)))
			delete(q.messages, id)
			delete(q.receipts, m.receipt)
			continue
		}
		if oldest.IsZero() || m.sentAt.Before(oldest) {
			oldest = m.sentAt
		}
	}
	q.oldestSent = oldest
}

// oldestVisible selects the receive batch: the first max visible messages
// on the sampled servers in arrival order, (sentAt, id) ascending. It
// keeps a bounded sorted window instead of sorting every candidate, so a
// receive costs one pass over the queue.
func oldestVisible(q *queue, sampled []bool, now time.Time, max int) []*message {
	batch := make([]*message, 0, max)
	for _, m := range q.messages {
		if !sampled[m.server] || m.invisibleTill.After(now) {
			continue
		}
		if len(batch) == max && !arrivedBefore(m, batch[max-1]) {
			continue
		}
		i := sort.Search(len(batch), func(i int) bool { return arrivedBefore(m, batch[i]) })
		if len(batch) < max {
			batch = append(batch, nil)
		}
		copy(batch[i+1:], batch[i:len(batch)-1])
		batch[i] = m
	}
	return batch
}

// arrivedBefore orders messages by send time, then id.
func arrivedBefore(a, b *message) bool {
	if !a.sentAt.Equal(b.sentAt) {
		return a.sentAt.Before(b.sentAt)
	}
	return a.id < b.id
}
