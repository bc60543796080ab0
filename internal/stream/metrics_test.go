package stream

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/israce"
)

func TestBatcherMetricsFlushReasons(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 4, MaxWait: 20 * time.Millisecond}, echoProc(&commits))

	// One full size-triggered batch.
	chans := make([]<-chan Result[int], 0, 6)
	for i := 0; i < 4; i++ {
		chans = append(chans, b.Submit(i))
	}
	// One record left to the deadline.
	chans = append(chans, b.Submit(100))
	collect(t, chans)

	// One record drained by Close.
	m0 := b.Metrics()
	if m0.FlushBySize != 1 || m0.FlushByDeadline != 1 {
		t.Fatalf("size=%d deadline=%d flushes, want 1/1", m0.FlushBySize, m0.FlushByDeadline)
	}
	last := b.Submit(200)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-last

	m := b.Metrics()
	if m.FlushByDrain != 1 {
		t.Fatalf("drain flushes = %d, want 1", m.FlushByDrain)
	}
	if m.Flushes != m.FlushBySize+m.FlushByDeadline+m.FlushByDrain {
		t.Fatalf("flushes %d != size %d + deadline %d + drain %d",
			m.Flushes, m.FlushBySize, m.FlushByDeadline, m.FlushByDrain)
	}
	if m.Submitted != 6 {
		t.Fatalf("submitted = %d, want 6", m.Submitted)
	}
	if m.QueueHighWater < 1 {
		t.Fatalf("queue high-water = %d, want >= 1", m.QueueHighWater)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after Close, want 0", m.QueueDepth)
	}
	if got := m.FlushRecords.Count(); got != m.Flushes {
		t.Fatalf("flush-size histogram has %d observations for %d flushes", got, m.Flushes)
	}
	if got := m.CommitNS.Count(); got != 3 {
		t.Fatalf("commit-latency histogram has %d observations for 3 clean flushes", got)
	}
}

func TestBatchErrorCarriesFlushReason(t *testing.T) {
	boom := errors.New("boom")
	b := New(Config{BatchSize: 2, MaxWait: -1},
		func(batch []int) ([]int, func(), error) { return nil, nil, boom })
	c1, c2 := b.Submit(1), b.Submit(2)
	r := <-c1
	<-c2
	var be *BatchError
	if !errors.As(r.Err, &be) {
		t.Fatalf("result error %v is not a *BatchError", r.Err)
	}
	if be.Reason != FlushBySize {
		t.Fatalf("BatchError.Reason = %v, want FlushBySize", be.Reason)
	}
	if err := b.Close(); err == nil {
		t.Fatal("Close should report the first flush error")
	}
	if m := b.Metrics(); m.Faults != 1 || m.FlushBySize != 1 {
		t.Fatalf("faults=%d size-flushes=%d, want 1/1", m.Faults, m.FlushBySize)
	}
}

func TestBatcherMetricsShedAndRetries(t *testing.T) {
	// A processor that fails retryably once, then succeeds.
	var calls atomic.Int64
	proc := func(batch []int) ([]int, func(), error) {
		if calls.Add(1) == 1 {
			return nil, nil, errTransient
		}
		return append([]int(nil), batch...), nil, nil
	}
	b := New(Config{BatchSize: 1, MaxWait: -1, Retries: 2, Backoff: time.Microsecond,
		RetryIf: func(err error) bool { return errors.Is(err, errTransient) }}, proc)
	r := <-b.Submit(7)
	if r.Err != nil {
		t.Fatalf("retried flush failed: %v", r.Err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if m := b.Metrics(); m.Retries != 1 {
		t.Fatalf("retries = %d, want 1", m.Retries)
	}
}

var errTransient = errors.New("transient")

func TestMetricsSteadyStateAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	// The gauges are unconditional (no WithStats analogue at this layer),
	// so their allocation contract is absolute: the counters and log2
	// histograms on the submit/flush path are fixed atomics — a warmed
	// batch cycle allocates only what Submit itself always has (the
	// 1-buffered result channel per record, the batch and result slices) —
	// and the Metrics() snapshot is a plain copy, zero allocations.
	var commits atomic.Int64
	b := New(Config{BatchSize: 8, MaxWait: -1}, echoProc(&commits))
	cycle := func() {
		chans := make([]<-chan Result[int], 8)
		for i := range chans {
			chans[i] = b.Submit(i)
		}
		for _, c := range chans {
			<-c
		}
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(20, func() { _ = b.Metrics() }); got != 0 {
		t.Errorf("Metrics() snapshot allocates %.0f objects, want 0", got)
	}
	perCycle := testing.AllocsPerRun(20, cycle)
	if perCycle > 24 { // 8 submits x (channel + element) + cycle-local slices + headroom
		t.Errorf("batch cycle allocates %.0f objects with gauges live, want <= 24", perCycle)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
