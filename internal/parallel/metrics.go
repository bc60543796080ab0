package parallel

import "sync/atomic"

// rtMetrics is the runtime's lifetime gauge/counter bank. All fields are
// atomics updated at coarse boundaries — a few adds per job once its
// barrier passes, one per admission decision — never inside a chunk body,
// so the scheduler hot path is untouched. The bank is embedded
// in Runtime by value (no pointer chase) and snapshot by Metrics.
type rtMetrics struct {
	jobs        atomic.Int64 // parallel jobs executed (loops that actually forked)
	chunksOwner atomic.Int64 // chunks run by the goroutine that issued the loop
	chunksStole atomic.Int64 // chunks run by pool workers
	panics      atomic.Int64 // engine calls that unwound with a contained panic
	cancels     atomic.Int64 // engine calls that unwound cancelled
	admitted    atomic.Int64 // calls admitted past the in-flight gate
	waits       atomic.Int64 // admissions that had to queue for a slot
	sheds       atomic.Int64 // admissions refused (context fired while queued or at the door)
	inflight    atomic.Int64 // admitted calls currently holding a slot
}

// RuntimeMetrics is one consistent-enough snapshot of a runtime's lifetime
// counters: each field is read atomically, the set is read without a global
// lock (fields may straddle a concurrent update, which is fine for
// monitoring — every individual counter is exact).
type RuntimeMetrics struct {
	// Jobs counts parallel loops that actually forked (multi-chunk jobs;
	// loops that stayed on the caller — small n, serial subtree — are not
	// jobs).
	Jobs int64
	// ChunksByOwner / ChunksStolen split every executed chunk by who ran it:
	// the goroutine that issued the loop, or an idle pool worker that stole
	// it. Their sum is the total chunk count; the stolen share approximates
	// how much the pool actually helps.
	ChunksByOwner int64
	ChunksStolen  int64
	// PanicsContained counts engine calls that unwound with a user panic
	// contained to a *PanicError; Cancellations counts calls that unwound
	// via context cancellation. Both are counted once per faulted call at
	// the public API boundary, not per worker (a panic inside a 100-chunk
	// job is one contained panic, not 100).
	PanicsContained int64
	Cancellations   int64
	// Admission gate counters (SetInflightLimit): calls admitted, calls that
	// queued before admission, calls shed (context fired before a slot
	// freed), and the slots held right now.
	Admitted       int64
	AdmissionWaits int64
	AdmissionSheds int64
	Inflight       int64
	// Workers is the pool size (excluding callers); constant per runtime.
	Workers int64
}

// Metrics snapshots the runtime's counters. Lock-free: safe to call from a
// monitoring goroutine at any rate while the runtime is under full load.
func (rt *Runtime) Metrics() RuntimeMetrics {
	return RuntimeMetrics{
		Jobs:            rt.m.jobs.Load(),
		ChunksByOwner:   rt.m.chunksOwner.Load(),
		ChunksStolen:    rt.m.chunksStole.Load(),
		PanicsContained: rt.m.panics.Load(),
		Cancellations:   rt.m.cancels.Load(),
		Admitted:        rt.m.admitted.Load(),
		AdmissionWaits:  rt.m.waits.Load(),
		AdmissionSheds:  rt.m.sheds.Load(),
		Inflight:        rt.m.inflight.Load(),
		Workers:         int64(rt.pool),
	}
}

// CountContainedPanic records one engine call that unwound with a contained
// panic. Counted by the public API boundary's fault handler — once per
// faulted call, after every sibling chunk has drained — so nested jobs and
// multi-worker aborts never double count.
func (rt *Runtime) CountContainedPanic() { rt.m.panics.Add(1) }

// CountCancellation records one engine call that unwound cancelled (the
// same once-per-call boundary as CountContainedPanic).
func (rt *Runtime) CountCancellation() { rt.m.cancels.Add(1) }
