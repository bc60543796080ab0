package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoProc is the trivial processor: out[i] = batch[i], no commit, no
// error. commits counts clean flushes.
func echoProc(commits *atomic.Int64) func([]int) ([]int, func(), error) {
	return func(batch []int) ([]int, func(), error) {
		outs := append([]int(nil), batch...)
		return outs, func() { commits.Add(1) }, nil
	}
}

func collect(t *testing.T, chans []<-chan Result[int]) []Result[int] {
	t.Helper()
	out := make([]Result[int], len(chans))
	for i, c := range chans {
		select {
		case out[i] = <-c:
		case <-time.After(10 * time.Second):
			t.Fatalf("result %d never delivered", i)
		}
	}
	return out
}

// TestSizeFlush: exactly batchSize records per flush when producers keep
// the queue fed; every record gets its own result back.
func TestSizeFlush(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 8, MaxWait: -1}, echoProc(&commits))
	var chans []<-chan Result[int]
	for i := 0; i < 64; i++ {
		chans = append(chans, b.Submit(i))
	}
	res := collect(t, chans)
	for i, r := range res {
		if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := b.Flushes(); got != 8 {
		t.Fatalf("expected 8 size-triggered flushes, got %d", got)
	}
	if commits.Load() != 8 {
		t.Fatalf("expected 8 commits, got %d", commits.Load())
	}
}

// TestDeadlineFlush: a partial batch flushes MaxWait after its first
// record, not at Close.
func TestDeadlineFlush(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 1 << 20, MaxWait: 20 * time.Millisecond}, echoProc(&commits))
	defer b.Close()
	c := b.Submit(7)
	select {
	case r := <-c:
		if r.Err != nil || r.Out != 7 {
			t.Fatalf("got (%d, %v)", r.Out, r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline flush never fired")
	}
}

// TestCloseDrains: records enqueued before Close are all flushed and
// delivered; records submitted after Close get ErrStreamClosed.
func TestCloseDrains(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 16, MaxWait: -1, QueueDepth: 256}, echoProc(&commits))
	var chans []<-chan Result[int]
	for i := 0; i < 100; i++ { // 6 full batches + a partial of 4
		chans = append(chans, b.Submit(i))
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, r := range collect(t, chans) {
		if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	if r := <-b.Submit(5); !errors.Is(r.Err, ErrStreamClosed) {
		t.Fatalf("post-Close Submit: got %v, want ErrStreamClosed", r.Err)
	}
	// Close is idempotent and still reports the stream's health.
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestShed: with Shed set, a full queue fails fast with ErrQueueFull and
// the record never reaches a flush.
func TestShed(t *testing.T) {
	block := make(chan struct{})
	var processed atomic.Int64
	b := New(Config{BatchSize: 1, MaxWait: -1, QueueDepth: 1, Shed: true},
		func(batch []int) ([]int, func(), error) {
			<-block
			processed.Add(int64(len(batch)))
			return append([]int(nil), batch...), nil, nil
		})
	// First record is picked up by the flusher and parks on `block`;
	// second fills the 1-deep queue; the rest must shed.
	c1 := b.Submit(1)
	deadline := time.Now().Add(5 * time.Second)
	for b.Flushes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never picked up the first record")
		}
		time.Sleep(time.Millisecond)
	}
	c2 := b.Submit(2)
	shed := 0
	for i := 0; i < 50; i++ {
		if r := <-b.Submit(100 + i); errors.Is(r.Err, ErrQueueFull) {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no record shed with a wedged flusher and a full queue")
	}
	close(block)
	if r := <-c1; r.Err != nil {
		t.Fatalf("record 1: %v", r.Err)
	}
	if r := <-c2; r.Err != nil {
		t.Fatalf("record 2: %v", r.Err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := processed.Load(); got != 2 {
		t.Fatalf("processed %d records, want exactly the 2 admitted", got)
	}
}

// TestFaultedFlushFailsOnlyItsBatch: a processor error fails every item of
// its own flush with one typed *BatchError (epoch, size, attempts, cause
// all visible) and no other flush.
func TestFaultedFlushFailsOnlyItsBatch(t *testing.T) {
	boom := errors.New("boom")
	var flush atomic.Int64
	b := New(Config{BatchSize: 4, MaxWait: -1},
		func(batch []int) ([]int, func(), error) {
			if flush.Add(1) == 2 {
				return nil, nil, boom
			}
			return append([]int(nil), batch...), nil, nil
		})
	var chans []<-chan Result[int]
	for i := 0; i < 12; i++ {
		chans = append(chans, b.Submit(i))
	}
	res := collect(t, chans)
	for i, r := range res {
		inFaulted := i >= 4 && i < 8
		if inFaulted {
			var be *BatchError
			if !errors.As(r.Err, &be) {
				t.Fatalf("record %d: got %v, want *BatchError", i, r.Err)
			}
			if be.Epoch != 2 || be.Records != 4 || be.Attempts != 1 || !errors.Is(r.Err, boom) {
				t.Fatalf("record %d: bad BatchError %+v", i, be)
			}
		} else if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	if err := b.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close: got %v, want the sticky first flush error", err)
	}
	if b.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", b.Faults())
	}
}

// TestProcessorPanicContained: a panicking processor (or commit) is
// recovered into the batch's error; the flusher survives and later
// batches commit.
func TestProcessorPanicContained(t *testing.T) {
	var flush atomic.Int64
	b := New(Config{BatchSize: 2, MaxWait: -1},
		func(batch []int) ([]int, func(), error) {
			if flush.Add(1) == 1 {
				panic("processor bug")
			}
			return append([]int(nil), batch...), nil, nil
		})
	c0 := b.Submit(0)
	c1 := b.Submit(1)
	c2 := b.Submit(2)
	c3 := b.Submit(3)
	if r := <-c0; r.Err == nil || fmt.Sprint(errorsCause(r.Err)) == "" {
		t.Fatalf("faulted batch record: %+v", r)
	}
	if r := <-c1; r.Err == nil {
		t.Fatal("second record of faulted batch must fail too")
	}
	if r := <-c2; r.Err != nil || r.Out != 2 {
		t.Fatalf("post-fault batch: got (%d, %v)", r.Out, r.Err)
	}
	if r := <-c3; r.Err != nil {
		t.Fatalf("post-fault batch: %v", r.Err)
	}
	b.Close()
}

func errorsCause(err error) error {
	var be *BatchError
	if errors.As(err, &be) {
		return be.Cause
	}
	return err
}

// TestRetryTransient: a transiently-failing flush (per RetryIf) is retried
// with backoff and commits on success; Attempts is visible on a terminal
// failure.
func TestRetryTransient(t *testing.T) {
	var attempts atomic.Int64
	b := New(Config{BatchSize: 2, MaxWait: -1, Retries: 2, Backoff: time.Microsecond},
		func(batch []int) ([]int, func(), error) {
			if attempts.Add(1) == 1 {
				return nil, nil, context.DeadlineExceeded
			}
			return append([]int(nil), batch...), nil, nil
		})
	c0, c1 := b.Submit(0), b.Submit(1)
	if r := <-c0; r.Err != nil {
		t.Fatalf("retried flush should commit: %v", r.Err)
	}
	<-c1
	if attempts.Load() != 2 {
		t.Fatalf("made %d attempts, want 2", attempts.Load())
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close after successful retry: %v", err)
	}

	// Non-transient errors are not retried.
	var n atomic.Int64
	boom := errors.New("deterministic")
	b2 := New(Config{BatchSize: 1, MaxWait: -1, Retries: 3, Backoff: time.Microsecond},
		func(batch []int) ([]int, func(), error) { n.Add(1); return nil, nil, boom })
	r := <-b2.Submit(1)
	var be *BatchError
	if !errors.As(r.Err, &be) || be.Attempts != 1 {
		t.Fatalf("non-transient failure: %+v", r.Err)
	}
	if n.Load() != 1 {
		t.Fatalf("non-transient error retried %d times", n.Load()-1)
	}
	b2.Close()

	// Retries exhausted: Attempts reports 1+Retries.
	b3 := New(Config{BatchSize: 1, MaxWait: -1, Retries: 2, Backoff: time.Microsecond,
		RetryIf: func(error) bool { return true }},
		func(batch []int) ([]int, func(), error) { return nil, nil, boom })
	r = <-b3.Submit(1)
	if !errors.As(r.Err, &be) || be.Attempts != 3 {
		t.Fatalf("exhausted retries: %+v", r.Err)
	}
	b3.Close()
}

// TestSubmitCtx: a producer waiting on a full queue can bail via its
// context without its record entering the stream.
func TestSubmitCtx(t *testing.T) {
	block := make(chan struct{})
	b := New(Config{BatchSize: 1, MaxWait: -1, QueueDepth: 1},
		func(batch []int) ([]int, func(), error) {
			<-block
			return append([]int(nil), batch...), nil, nil
		})
	defer b.Close()    // runs after close(block) (LIFO): the flusher
	defer close(block) // must unpark before Close can join it

	b.Submit(1) // flusher parks on block
	deadline := time.Now().Add(5 * time.Second)
	for b.Flushes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never started")
		}
		time.Sleep(time.Millisecond)
	}
	b.Submit(2) // fills the queue
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if r := <-b.SubmitCtx(ctx, 3); !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("ctx-bounded submit on full queue: got %v", r.Err)
	}
}

// TestConcurrentProducersAndCloseNoLeak: many producers race Close; every
// result channel settles with either a real result or ErrStreamClosed,
// and no goroutine outlives Close.
func TestConcurrentProducersAndCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		var commits atomic.Int64
		b := New(Config{BatchSize: 32, MaxWait: time.Millisecond, QueueDepth: 64}, echoProc(&commits))
		var wg sync.WaitGroup
		var delivered, closedErrs atomic.Int64
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					r := <-b.Submit(p*1000 + i)
					switch {
					case r.Err == nil:
						delivered.Add(1)
					case errors.Is(r.Err, ErrStreamClosed):
						closedErrs.Add(1)
					default:
						t.Errorf("unexpected error: %v", r.Err)
						return
					}
				}
			}(p)
		}
		// Close while producers are mid-stream.
		time.Sleep(time.Duration(round) * time.Millisecond)
		if err := b.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		if delivered.Load()+closedErrs.Load() != 2000 {
			t.Fatalf("settled %d+%d results, want 2000", delivered.Load(), closedErrs.Load())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after Close, baseline %d: flusher leak", g, before)
	}
}

// TestProcessorOutputContract: a processor returning the wrong output
// count fails the batch instead of mis-delivering results.
func TestProcessorOutputContract(t *testing.T) {
	b := New(Config{BatchSize: 4, MaxWait: -1},
		func(batch []int) ([]int, func(), error) { return batch[:1], nil, nil })
	chans := []<-chan Result[int]{b.Submit(0), b.Submit(1), b.Submit(2), b.Submit(3)}
	for _, c := range chans {
		var be *BatchError
		if r := <-c; !errors.As(r.Err, &be) {
			t.Fatalf("contract violation must fail the batch, got %+v", r)
		}
	}
	b.Close()
}

// The queue contract: what a bounded channel and a reader-writer lock
// around it gave implicitly, and the batcher's ring must keep explicitly.

// enteredCtx is a context that never fires and closes entered the first
// time Done is asked for — the moment SubmitCtx commits to waiting for
// queue space.
type enteredCtx struct {
	context.Context
	once    sync.Once
	entered chan struct{}
}

func (c *enteredCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.entered) })
	return nil
}

// TestCloseAdmitsBlockedProducers: producers already waiting on a full
// queue when Close begins are admitted — they get real results, not
// ErrStreamClosed — and Close returns only after they settle.
func TestCloseAdmitsBlockedProducers(t *testing.T) {
	gate := make(chan struct{})
	var commits atomic.Int64
	echo := echoProc(&commits)
	b := New(Config{BatchSize: 2, MaxWait: -1, QueueDepth: 2},
		func(batch []int) ([]int, func(), error) {
			if batch[0] == 0 {
				<-gate // the first batch parks the flusher
			}
			return echo(batch)
		})
	chans := []<-chan Result[int]{b.Submit(0), b.Submit(1)}
	deadline := time.Now().Add(5 * time.Second)
	for b.Flushes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never picked up the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	chans = append(chans, b.Submit(2), b.Submit(3)) // QueueDepth records wait
	// Producers past the queue bound wait for space; each is known to wait
	// once SubmitCtx asks its context for Done. (The first may find room
	// and return at once: the queue also holds a batch under assembly, one
	// record short of a flush.)
	const waiting = 4
	blocked := make([]chan (<-chan Result[int]), waiting)
	for p := range blocked {
		ctx := &enteredCtx{Context: context.Background(), entered: make(chan struct{})}
		blocked[p] = make(chan (<-chan Result[int]), 1)
		go func(p int) { blocked[p] <- b.SubmitCtx(ctx, 100+p) }(p)
		select {
		case <-ctx.entered:
		case res := <-blocked[p]:
			blocked[p] <- res
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	// Give Close time to begin before the flusher is released. The
	// assertions hold in either order; the sleep only makes the order
	// under test the common one.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while admitted records were still queued", err)
	default:
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, r := range collect(t, chans) {
		if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	for p := range blocked {
		var c <-chan Result[int]
		select {
		case c = <-blocked[p]:
		default:
			t.Fatalf("producer %d still inside SubmitCtx after Close returned", p)
		}
		select {
		case r := <-c:
			if r.Err != nil || r.Out != 100+p {
				t.Fatalf("blocked producer %d: got (%d, %v), want its own record back", p, r.Out, r.Err)
			}
		default:
			t.Fatalf("blocked producer %d unsettled after Close returned", p)
		}
	}
	if m := b.Metrics(); m.Submitted != int64(len(chans)+waiting) {
		t.Fatalf("submitted %d, want %d", m.Submitted, len(chans)+waiting)
	}
}

// TestQueueShallowerThanBatch: a queue bound below the batch size still
// fills batches — every record is delivered in size-triggered flushes.
func TestQueueShallowerThanBatch(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 64, MaxWait: -1, QueueDepth: 8}, echoProc(&commits))
	const batches = 10
	chans := make([]<-chan Result[int], 64*batches)
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := range chans {
			chans[i] = b.Submit(i)
		}
	}()
	select {
	case <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("producer stuck on a full queue that never filled a batch")
	}
	for i, r := range collect(t, chans) {
		if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if m := b.Metrics(); m.FlushBySize != batches || m.Flushes != batches {
		t.Fatalf("%d flushes, %d by size; want %d, all by size", m.Flushes, m.FlushBySize, batches)
	}
}

// TestSingleProducerBatchesInOrder: with one producer and size-only
// flushing, flush k holds exactly records [(k-1)B, kB) — the batch
// composition the chaos suite's flush-ordinal injectors rely on — also
// when the producer keeps running into a full queue.
func TestSingleProducerBatchesInOrder(t *testing.T) {
	const bs, batches = 16, 12
	var got [][]int // appended by the flusher, read after Close joined it
	b := New(Config{BatchSize: bs, MaxWait: -1, QueueDepth: 4},
		func(batch []int) ([]int, func(), error) {
			got = append(got, append([]int(nil), batch...))
			return append([]int(nil), batch...), nil, nil
		})
	for i := 0; i < bs*batches; i++ {
		b.Submit(i)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(got) != batches {
		t.Fatalf("%d flushes, want %d", len(got), batches)
	}
	for k, batch := range got {
		if len(batch) != bs {
			t.Fatalf("flush %d holds %d records, want %d", k+1, len(batch), bs)
		}
		for j, r := range batch {
			if r != k*bs+j {
				t.Fatalf("flush %d position %d holds record %d, want %d", k+1, j, r, k*bs+j)
			}
		}
	}
}

// TestQueueDepthGauge: the depth gauge counts every record waiting for a
// flush, never exceeds the queue's capacity (QueueDepth+BatchSize-1), and
// reads 0 once Close has drained the stream.
func TestQueueDepthGauge(t *testing.T) {
	const bs, depth = 8, 4
	gate := make(chan struct{})
	var commits atomic.Int64
	echo := echoProc(&commits)
	b := New(Config{BatchSize: bs, MaxWait: -1, QueueDepth: depth},
		func(batch []int) ([]int, func(), error) {
			<-gate
			return echo(batch)
		})
	// Producers outrun the parked flusher until the queue is full, then
	// wait for space.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6*bs; i++ {
			b.Submit(i)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.Metrics().QueueDepth < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", b.Metrics().QueueDepth, depth)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m := b.Metrics()
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d after Close, want 0", m.QueueDepth)
	}
	if m.QueueHighWater < depth || m.QueueHighWater > depth+bs-1 {
		t.Fatalf("queue high water %d, want within [%d, %d]", m.QueueHighWater, depth, depth+bs-1)
	}
	if m.Submitted != 6*bs || commits.Load() != 6 {
		t.Fatalf("submitted %d, committed %d flushes; want %d, 6", m.Submitted, commits.Load(), 6*bs)
	}
}
