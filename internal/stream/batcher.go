package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// Typed sentinel errors of the streaming front end. They follow the
// ErrPipelineConsumed pattern: the root package re-exports them, and the
// concrete errors delivered on result channels wrap them (or the underlying
// cause) for errors.Is matching.
var (
	// ErrQueueFull is returned (on the result channel) by a shedding
	// stream when the bounded submit queue is full: the record was never
	// enqueued and no flush will see it. Blocking streams never return it.
	ErrQueueFull = errors.New("semisort: stream queue full, record shed")

	// ErrStreamClosed is returned (on the result channel) for records
	// submitted after Close began. Records submitted before Close —
	// including those of producers still waiting for queue space when it
	// began — are never rejected with it: Close drains them.
	ErrStreamClosed = errors.New("semisort: stream closed")
)

// BatchError is the error delivered to every item of a flush whose process
// phase faulted (after retries, if configured). Cause is the underlying
// fault — a *parallel.PanicError for a user-callback panic, or a context
// error for a cancelled driver call — and is exposed via Unwrap, so
// errors.Is(err, context.Canceled) and errors.As(err, &pe) both see
// through it. The batch's epoch and size identify which flush died.
type BatchError struct {
	Epoch    int64       // 1-based flush ordinal within the stream
	Records  int         // records in the failed batch
	Attempts int         // process attempts made (1 + retries)
	Reason   FlushReason // what triggered the doomed flush (size, deadline, drain)
	Cause    error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("semisort: stream flush %d (%d records, %d attempts, %s-triggered) failed: %v",
		e.Epoch, e.Records, e.Attempts, e.Reason, e.Cause)
}

func (e *BatchError) Unwrap() error { return e.Cause }

// Result is the terminal outcome of one submitted record: exactly one
// Result is delivered on the 1-buffered channel Submit returns, so a
// producer may receive it at leisure or abandon the channel entirely
// without leaking a goroutine.
type Result[O any] struct {
	Out O
	Err error
}

// Config shapes a Batcher. The zero value gets usable defaults.
type Config struct {
	// BatchSize flushes a batch when it reaches this many records
	// (default 1024).
	BatchSize int

	// MaxWait flushes a partial batch this long after its FIRST record was
	// enqueued into it, bounding the latency a trickle of records can
	// experience (default 50ms; <= 0 disables the deadline — only size and
	// Close flush).
	MaxWait time.Duration

	// QueueDepth bounds the submit queue (default 4*BatchSize) beyond the
	// batch under assembly: the queue holds at most QueueDepth+BatchSize-1
	// records, so it can always fill a batch. A full queue blocks
	// producers (backpressure) unless Shed is set.
	QueueDepth int

	// Shed makes Submit fail fast with ErrQueueFull when the queue is full
	// instead of blocking the producer.
	Shed bool

	// Retries re-runs a failed process phase up to this many extra times
	// before failing the batch, provided RetryIf accepts the error.
	Retries int

	// Backoff is the sleep before the first retry, doubling per attempt
	// (default 1ms when Retries > 0).
	Backoff time.Duration

	// RetryIf classifies flush errors as transient. Nil defaults to
	// cancellation errors (context.Canceled / context.DeadlineExceeded) —
	// the shape a per-flush deadline or a briefly-cancelled runtime
	// produces; a user-callback panic is assumed deterministic and is not
	// retried by default.
	RetryIf func(error) bool

	// OnFlush, when non-nil, observes each flush: it runs on the flusher
	// goroutine at the start of the flush's FIRST attempt (retries do not
	// re-fire it), before the processor. epoch is the 1-based flush
	// ordinal, records the batch size. It runs inside the flush's recovery
	// scope: a panicking hook faults the batch like a panicking processor
	// (the chaos harness relies on exactly that to land faults at the k-th
	// flush).
	OnFlush func(epoch int64, records int)
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 1024
	}
	if c.MaxWait == 0 {
		c.MaxWait = 50 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.BatchSize
	}
	if c.Retries > 0 && c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.RetryIf == nil {
		c.RetryIf = func(err error) bool {
			return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		}
	}
	return c
}

// item is one queued record with its result channel.
type item[R, O any] struct {
	rec R
	res chan Result[O]
}

// Batcher coalesces records from any number of producer goroutines into
// batches and hands them to a processor, delivering one Result per record.
//
// The processor returns per-item outputs, an optional commit closure, and
// an error. The batcher invokes commit only when the processor returned
// cleanly — the epoch-commit contract of the package doc — and recovers
// processor panics into typed errors, so one poisoned batch never kills
// the flusher. The processor must not retain the batch slice past its
// return: a retry re-presents the same backing array.
//
// Exactly one flusher goroutine exists per Batcher; it is the only caller
// of the processor, so processors may stage state deltas without internal
// locking against each other. Close stops admission, drains the queue,
// flushes the final partial batch, settles every outstanding result
// channel, and joins the flusher — a closed Batcher holds no goroutines.
//
// Producers and the flusher meet per batch, not per record: a producer
// appends to a ring under mu and rings the doorbell only when its record
// makes the ring non-empty or completes a batch; the flusher takes a whole
// batch under mu and, if producers wait for space, wakes them all at once.
type Batcher[R, O any] struct {
	cfg  Config
	proc func(batch []R) (outs []O, commit func(), err error)

	// mu guards the ring and the admission state. The ring holds
	// QueueDepth+BatchSize-1 items: the queue bound plus a batch under
	// assembly, so a full ring always holds a full batch.
	mu      sync.Mutex
	ring    []item[R, O]
	head, n int  // oldest item's slot; items queued
	closed  bool // Close has begun: new producers are refused
	// blocked counts producers waiting for space. They entered before
	// Close, so Close admits them; the flusher does not exit until they
	// have settled. space is closed (and replaced) by the take that frees
	// their slots.
	blocked int
	space   chan struct{}

	bell chan struct{} // 1-buffered doorbell: the flusher has work to look at
	done chan struct{}

	flushes atomic.Int64 // flush ordinals handed out (= epochs started)
	faults  atomic.Int64 // flushes that failed after retries
	m       bMetrics     // submit/flush metrics bank (see metrics.go)

	errOnce  sync.Once
	firstErr atomic.Pointer[BatchError]

	// The flusher's batch, split into the plain []R the processor sees and
	// the result channels; reused across flushes.
	recs []R
	res  []chan Result[O]
}

// New creates a Batcher and starts its flusher goroutine.
func New[R, O any](cfg Config, proc func(batch []R) ([]O, func(), error)) *Batcher[R, O] {
	b := &Batcher[R, O]{
		cfg:  cfg.withDefaults(),
		proc: proc,
	}
	b.ring = make([]item[R, O], b.cfg.QueueDepth+b.cfg.BatchSize-1)
	b.space = make(chan struct{})
	b.bell = make(chan struct{}, 1)
	b.done = make(chan struct{})
	go b.run()
	return b
}

// Submit enqueues one record and returns its result channel. On a blocking
// stream it waits for queue space (backpressure); on a shedding stream a
// full queue delivers ErrQueueFull immediately. After Close has begun it
// delivers ErrStreamClosed. The channel is 1-buffered and receives exactly
// one Result; abandoning it leaks nothing.
func (b *Batcher[R, O]) Submit(r R) <-chan Result[O] { return b.submit(nil, r) }

// SubmitCtx is Submit with a context bounding the producer's wait for
// queue space: if ctx fires first, the record is not enqueued and its
// result channel delivers ctx.Err(). Shedding streams never wait, so ctx
// only guards the enqueue of blocking streams.
func (b *Batcher[R, O]) SubmitCtx(ctx context.Context, r R) <-chan Result[O] {
	return b.submit(ctx, r)
}

func (b *Batcher[R, O]) submit(ctx context.Context, r R) <-chan Result[O] {
	res := make(chan Result[O], 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		res <- Result[O]{Err: ErrStreamClosed}
		return res
	}
	for b.n == len(b.ring) {
		if b.cfg.Shed {
			b.mu.Unlock()
			b.m.shed.Add(1)
			res <- Result[O]{Err: ErrQueueFull}
			return res
		}
		if err := b.awaitSpace(ctx); err != nil {
			b.mu.Unlock()
			res <- Result[O]{Err: err}
			return res
		}
	}
	i := b.head + b.n
	if i >= len(b.ring) {
		i -= len(b.ring)
	}
	b.ring[i] = item[R, O]{rec: r, res: res}
	b.n++
	b.m.submitted.Add(1)
	if d := int64(b.n); d > b.m.queueHighWater.Load() {
		b.m.queueHighWater.Store(d) // every writer holds mu
	}
	wake := b.n == 1 || b.n == b.cfg.BatchSize || b.closing()
	b.mu.Unlock()
	if wake {
		b.wake()
	}
	return res
}

// awaitSpace parks a producer on a full ring until the flusher's next take
// (or ctx fires), with mu held on entry and on return. The producer counts
// as blocked while it waits, which is what admits it past a concurrent
// Close.
func (b *Batcher[R, O]) awaitSpace(ctx context.Context) error {
	space := b.space
	b.blocked++
	b.mu.Unlock()
	var err error
	if ctx == nil {
		<-space
	} else {
		select {
		case <-space:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	b.mu.Lock()
	b.blocked--
	if err != nil && b.closing() {
		b.wake() // the drain may have been waiting on this producer
	}
	return err
}

// closing reports, with mu held, that Close has begun and no producer
// admitted before it is still waiting: the ring's contents are final.
func (b *Batcher[R, O]) closing() bool { return b.closed && b.blocked == 0 }

// wake rings the flusher's doorbell; a ring already pending absorbs it.
func (b *Batcher[R, O]) wake() {
	select {
	case b.bell <- struct{}{}:
	default:
	}
}

// Close stops admission (subsequent Submits deliver ErrStreamClosed),
// drains every queued record — including those of producers already
// waiting for space when Close began — flushes the final partial batch,
// waits for the flusher to settle every outstanding result channel and
// exit, and returns the stream's first flush error (nil if every flush
// committed). It is idempotent and safe to call concurrently; every caller
// blocks until the drain completes.
func (b *Batcher[R, O]) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wake()
	<-b.done
	if e := b.firstErr.Load(); e != nil {
		return e
	}
	return nil
}

// Flushes reports how many flushes have started (committed or not).
func (b *Batcher[R, O]) Flushes() int64 { return b.flushes.Load() }

// Faults reports how many flushes failed after exhausting retries.
func (b *Batcher[R, O]) Faults() int64 { return b.faults.Load() }

// Closed reports whether Close has begun.
func (b *Batcher[R, O]) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// run is the flusher: it owns batch assembly (flush at BatchSize, at
// MaxWait after a batch's first record, and at drain) and result delivery.
// Between flushes it sleeps on the doorbell or the batch's deadline, so it
// wakes a bounded number of times per batch whatever the record rate.
func (b *Batcher[R, O]) run() {
	defer close(b.done)
	// One deadline timer for the stream's life, armed when a batch gets
	// its first record and stopped when that batch is taken; deadline is
	// its channel while armed, nil otherwise.
	var timer *time.Timer
	var deadline <-chan time.Time
	if b.cfg.MaxWait > 0 {
		timer = time.NewTimer(b.cfg.MaxWait)
		timer.Stop()
	}
	expired := false
	for {
		b.mu.Lock()
		var reason FlushReason
		switch {
		case b.n >= b.cfg.BatchSize:
			reason = FlushBySize
		case b.n > 0 && b.closing():
			reason = FlushByDrain // final partial batch
		case b.n > 0 && expired:
			reason = FlushByDeadline
		default:
			n, drained := b.n, b.closing()
			b.mu.Unlock()
			if drained {
				return // closed and empty, and no admitted producer left
			}
			if n > 0 && timer != nil && deadline == nil {
				timer.Reset(b.cfg.MaxWait)
				deadline = timer.C
			}
			select {
			case <-b.bell:
			case <-deadline:
				deadline, expired = nil, true
			}
			continue
		}
		b.take()
		b.mu.Unlock()
		if deadline != nil {
			timer.Stop()
			deadline = nil
		}
		expired = false
		b.flush(reason)
	}
}

// take moves the oldest batch (at most BatchSize items) out of the ring
// into the flusher's scratch and wakes every producer waiting for space.
// Called with mu held.
func (b *Batcher[R, O]) take() {
	k := min(b.n, b.cfg.BatchSize)
	for range k {
		it := &b.ring[b.head]
		b.recs = append(b.recs, it.rec)
		b.res = append(b.res, it.res)
		*it = item[R, O]{} // drop record/channel refs so the GC isn't held hostage
		if b.head++; b.head == len(b.ring) {
			b.head = 0
		}
	}
	b.n -= k
	b.m.taken.Add(int64(k))
	if b.blocked > 0 {
		close(b.space)
		b.space = make(chan struct{})
	}
}

// flush runs one epoch over the taken batch: process (with bounded
// retries), then commit, then result delivery. A fault after retries
// fails exactly this batch's items with one shared *BatchError.
func (b *Batcher[R, O]) flush(reason FlushReason) {
	defer func() {
		clear(b.recs)
		clear(b.res)
		b.recs, b.res = b.recs[:0], b.res[:0]
	}()
	epoch := b.flushes.Add(1)
	switch reason {
	case FlushBySize:
		b.m.flushSize.Add(1)
	case FlushByDeadline:
		b.m.flushDeadline.Add(1)
	case FlushByDrain:
		b.m.flushDrain.Add(1)
	}
	records := len(b.recs)
	b.m.flushRecords.Observe(int64(records))
	t0 := time.Now()
	var outs []O
	var err error
	for attempt := 0; ; attempt++ {
		outs, err = b.attempt(epoch, attempt)
		if err == nil || attempt >= b.cfg.Retries || !b.cfg.RetryIf(err) {
			if err != nil {
				err = &BatchError{Epoch: epoch, Records: records, Attempts: attempt + 1,
					Reason: reason, Cause: err}
			}
			break
		}
		b.m.retries.Add(1)
		time.Sleep(b.cfg.Backoff << attempt)
	}
	if err == nil && len(outs) != records {
		// A processor contract violation is a bug, not a data fault — but
		// it must still fail the batch rather than mis-deliver results.
		err = &BatchError{Epoch: epoch, Records: records, Attempts: 1, Reason: reason,
			Cause: fmt.Errorf("semisort: stream processor returned %d outputs for %d records", len(outs), records)}
	}
	if err == nil {
		// Commit latency: first attempt start through commit return, the
		// epoch's end-to-end cost as the stream saw it.
		b.m.commitNS.Observe(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		b.faults.Add(1)
		be := err.(*BatchError)
		b.errOnce.Do(func() { b.firstErr.Store(be) })
		for _, res := range b.res {
			res <- Result[O]{Err: be}
		}
		return
	}
	for i, res := range b.res {
		res <- Result[O]{Out: outs[i]}
	}
}

// attempt runs one process attempt under a recovery scope: a panic in the
// flush hook, the driver call, a state probe, or the commit closure is
// converted to a typed error — *parallel.PanicError, or the bare context
// error when the panic was the engine's cancellation unwind — so the
// flusher survives any fault a batch can throw at it.
func (b *Batcher[R, O]) attempt(epoch int64, attempt int) (outs []O, err error) {
	defer func() {
		if r := recover(); r != nil {
			if cause := parallel.CancelCause(r); cause != nil {
				err = cause
				return
			}
			err = parallel.AsPanicError(r)
		}
	}()
	if attempt == 0 && b.cfg.OnFlush != nil {
		b.cfg.OnFlush(epoch, len(b.recs))
	}
	outs, commit, perr := b.proc(b.recs)
	if perr != nil {
		return nil, perr
	}
	if commit != nil {
		commit()
	}
	return outs, nil
}
