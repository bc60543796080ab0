package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRuntimeMetricsChunkAccounting(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()
	before := rt.Metrics()
	var sum atomic.Int64
	n, grain := 1<<20, 1<<14
	rt.ForRange(n, grain, func(lo, hi int) {
		sum.Add(int64(hi - lo))
	})
	m := rt.Metrics()
	if sum.Load() != int64(n) {
		t.Fatalf("body covered %d of %d indices", sum.Load(), n)
	}
	if m.Jobs != before.Jobs+1 {
		t.Fatalf("jobs %d -> %d, want one new job", before.Jobs, m.Jobs)
	}
	wantChunks := int64((n + grain - 1) / grain)
	got := (m.ChunksByOwner + m.ChunksStolen) - (before.ChunksByOwner + before.ChunksStolen)
	if got != wantChunks {
		t.Fatalf("owner+stolen chunks = %d, want %d", got, wantChunks)
	}
	if m.Workers != 3 {
		t.Fatalf("Workers = %d, want pool size 3 for NewRuntime(4)", m.Workers)
	}
}

// A panicking chunk aborts its job: the chunks claimed after it are drained,
// not run, and the ownership split still sums to the chunks that ran.
func TestRuntimeMetricsChunkAccountingPanic(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()
	before := rt.Metrics()
	var ran atomic.Int64
	n, grain := 1<<20, 1<<14
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the chunk panic was not re-raised")
			}
		}()
		rt.ForRange(n, grain, func(lo, hi int) {
			ran.Add(1)
			if lo == 5*grain {
				panic("chunk fault")
			}
		})
	}()
	m := rt.Metrics()
	got := (m.ChunksByOwner + m.ChunksStolen) - (before.ChunksByOwner + before.ChunksStolen)
	if got != ran.Load() {
		t.Fatalf("owner+stolen chunks = %d, want the %d chunks that ran", got, ran.Load())
	}
}

func TestRuntimeMetricsAdmission(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Close()
	rt.SetInflightLimit(1)

	held, err := rt.Acquire(nil)
	if err != nil {
		t.Fatalf("Acquire on a free gate: %v", err)
	}
	if m := rt.Metrics(); m.Inflight != 1 || m.Admitted != 1 {
		t.Fatalf("after one admit: inflight=%d admitted=%d", m.Inflight, m.Admitted)
	}

	// A second call must queue and then shed when its context fires.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := rt.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire returned %v, want deadline exceeded", err)
	}
	m := rt.Metrics()
	if m.AdmissionWaits != 1 || m.AdmissionSheds != 1 {
		t.Fatalf("waits=%d sheds=%d, want 1/1", m.AdmissionWaits, m.AdmissionSheds)
	}

	held.Release()
	if m := rt.Metrics(); m.Inflight != 0 {
		t.Fatalf("inflight = %d after release, want 0", m.Inflight)
	}

	// The unlimited gate still maintains the inflight gauge.
	rt.SetInflightLimit(0)
	s, err := rt.Acquire(nil)
	if err != nil {
		t.Fatalf("unlimited Acquire: %v", err)
	}
	if m := rt.Metrics(); m.Inflight != 1 {
		t.Fatalf("unlimited inflight = %d, want 1", m.Inflight)
	}
	s.Release()
	if m := rt.Metrics(); m.Inflight != 0 {
		t.Fatalf("unlimited inflight after release = %d, want 0", m.Inflight)
	}
}

func TestRuntimeMetricsFaultCounters(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Close()
	rt.CountContainedPanic()
	rt.CountCancellation()
	rt.CountCancellation()
	m := rt.Metrics()
	if m.PanicsContained != 1 || m.Cancellations != 2 {
		t.Fatalf("panics=%d cancels=%d, want 1/2", m.PanicsContained, m.Cancellations)
	}
}
