package semisort

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stream"
)

// Failure semantics of the public API (DESIGN.md "Failure semantics" has
// the full picture):
//
//   - A panic in a user callback (key, hash, eq, less, map, combine, join)
//     is contained by the runtime on whatever goroutine it fired,
//     recorded with that goroutine's stack, and re-raised on the CALLING
//     goroutine as a *PanicError once every sibling worker has drained.
//     Pool workers survive; pooled state the call touched is discarded,
//     never re-pooled; subsequent calls on the same Runtime see a clean
//     arena.
//
//   - WithContext(ctx) makes a call cancellable at level boundaries,
//     classify chunks and broadcast rows. The ...E entry points (SortEqE,
//     HistogramE, RunE, ...) return ctx.Err() — context.Canceled or
//     context.DeadlineExceeded — after the engine has unwound and
//     discarded the call's leases. The error-less forms are thin wrappers
//     that panic on cancellation, so passing WithContext to them is
//     possible but pointless; use the E forms with contexts.
//
//   - Runtime.SetInflightLimit(n) adds admission control: every public op
//     and pipeline stage acquires a slot before touching the pool, waiting
//     context-aware, so a multi-tenant service gets backpressure instead
//     of unbounded pile-up.

// PanicError is the typed panic value a call re-raises on its caller after
// a user callback panicked on any worker goroutine: Value holds the
// original panic value and Stack the panicking goroutine's stack. Recover
// it at a service boundary to fail one request instead of the process —
// the runtime and its pools remain fully usable.
type PanicError = parallel.PanicError

// ErrPipelineConsumed reports reuse of a consumed pipeline. It is the
// errors.Is target of the *PipelineConsumedError panic value raised when a
// stage or terminal is invoked after the pipeline ended.
var ErrPipelineConsumed = errors.New("semisort: pipeline already consumed (pipelines are single-use)")

// errPipelineFaulted is the fault a pipeline carries after a user-callback
// panic killed one of its stages: the *PanicError already unwound through
// the stage call, so a caller who recovered it and then reaches the
// terminal gets this marker instead of half-computed results.
var errPipelineFaulted = errors.New("semisort: pipeline aborted by a callback panic in an earlier stage")

// PipelineConsumedError is the panic value raised when a stage or terminal
// is invoked on a pipeline that a terminal already ended (pipelines are
// single-use; see Query). Op names the offending call. It wraps
// ErrPipelineConsumed for errors.Is matching.
type PipelineConsumedError struct {
	Op string // the stage or terminal invoked after consumption, e.g. "Run"
}

func (e *PipelineConsumedError) Error() string {
	return ErrPipelineConsumed.Error() + ": " + e.Op + " called on a consumed pipeline"
}

// Unwrap makes errors.Is(e, ErrPipelineConsumed) hold.
func (e *PipelineConsumedError) Unwrap() error { return ErrPipelineConsumed }

// Streaming sentinels, following the ErrPipelineConsumed pattern: the
// canonical values live in internal/stream (the batcher delivers them on
// result channels); these re-exports are the errors.Is targets.
var (
	// ErrQueueFull is delivered by a shedding stream (WithShedding) when
	// the bounded submit queue is full: the record was dropped at the
	// door, no flush ever saw it. Blocking streams (the default) apply
	// backpressure instead and never produce it.
	ErrQueueFull = stream.ErrQueueFull

	// ErrStreamClosed is delivered for records submitted after a stream's
	// Close began. Records enqueued before Close are drained and flushed,
	// never rejected with it.
	ErrStreamClosed = stream.ErrStreamClosed
)

// asStreamFault converts a panic recovered on a streaming staging path
// (outside the engine's own call guard) into the same typed errors the
// guard produces: the bare context error for a cancellation unwind, a
// *PanicError for everything else.
func asStreamFault(r any) error {
	if cause := parallel.CancelCause(r); cause != nil {
		return cause
	}
	return parallel.AsPanicError(r)
}

// WithContext threads ctx through the call: the engine checks it at every
// recursion-level boundary, at every classify chunk, and between broadcast
// rows of a join, so cancellation latency is one chunk of one sweep — not
// one call. Use the error-returning entry points (SortEqE, HistogramE,
// JoinEqE, RunE, ...) with it; they return ctx.Err() once the call has
// unwound and its leases are discarded. The error-less forms panic the
// cancellation instead (they cannot return it), so WithContext only makes
// sense together with an E form.
func WithContext(ctx context.Context) Option {
	return func(c *core.Config) { c.Ctx = ctx }
}

// enterCall is the root guard every public op and pipeline stage runs
// under. It admits the call (context-aware, against the runtime's
// in-flight limit), fails fast on an already-fired context, and installs a
// pooled lease ledger into cfg. The caller defers the returned guard's done
// with its named error; see callGuard.done.
func enterCall(cfg *core.Config) (callGuard, error) {
	rt := parallel.Or(cfg.Runtime)
	slot, err := rt.Acquire(cfg.Ctx)
	if err != nil {
		return callGuard{}, err
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			slot.Release()
			return callGuard{}, err
		}
	}
	lg := parallel.GetLedger(rt.Scratch())
	cfg.Ledger = lg
	return callGuard{rt: rt, slot: slot, lg: lg}, nil
}

// callGuard is an admitted call: its runtime, admission slot and ledger. A
// value with a method, not a closure, so entering a call allocates nothing
// and the caller's named error stays on its stack.
type callGuard struct {
	rt   *parallel.Runtime
	slot parallel.AdmitSlot
	lg   *parallel.Ledger
}

// done ends the call. It must be deferred directly (defer call.done(&err)),
// since recover only works in a directly deferred call: on a clean return
// it settles the ledger (stragglers leak to the GC, never double-pool) and
// releases admission; on cancellation it converts the engine's cancel
// panic into ctx.Err() in *errp; on any other panic it aborts the ledger —
// discarding every tracked lease — and re-raises as *PanicError.
func (g callGuard) done(errp *error) {
	r := recover()
	if r == nil {
		g.lg.Settle(g.rt.Scratch())
		g.slot.Release()
		return
	}
	// Faulted: discard every tracked lease and retire the ledger (an
	// aborted ledger is never re-pooled). Admission is released either
	// way — the call is over: the slot drains the exact channel it was
	// acquired on, so a concurrent SetInflightLimit swap cannot strand
	// waiters on the old semaphore.
	g.lg.Abort()
	g.slot.Release()
	// Fault metrics are counted here — the public API boundary, once per
	// faulted call after every sibling worker drained — not per job or
	// per chunk, so nested jobs and multi-worker aborts never inflate
	// them (see RuntimeMetrics).
	if cause := parallel.CancelCause(r); cause != nil {
		g.rt.CountCancellation()
		*errp = cause
		return
	}
	g.rt.CountContainedPanic()
	panic(parallel.AsPanicError(r))
}

// mustCall backs the error-less wrappers: run the E form, panic on error
// (only reachable when the caller combined WithContext with an error-less
// form and the context fired).
func mustCall(err error) {
	if err != nil {
		panic(err)
	}
}
