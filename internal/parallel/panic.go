package parallel

import (
	"fmt"
	"runtime"
)

// Fault containment. A panic in a loop body used to be an unrecoverable
// process crash whenever the body happened to be executing on a pool
// goroutine: nothing above a worker's frame recovers, so one bad user
// callback (hash, key, eq, less) took the whole service down. Now every
// chunk runs under a recover. The first panic value of a job is recorded
// together with the panicking goroutine's stack, the job flips to
// aborting — sibling participants drain the remaining chunks without
// running them — and once every chunk is accounted for, the recorded
// panic is re-raised on the CALLING goroutine wrapped in a *PanicError.
// Pool workers survive: they recover, finish the job's bookkeeping and go
// back to the queue, so a runtime that has seen a thousand panics still
// has its full pool.

// PanicError is the typed panic value a parallel call re-raises on the
// calling goroutine after a loop body panicked on any participant. Value
// is the original panic value; Stack is the panicking goroutine's stack,
// captured at the point of recovery (the caller's own stack, which the
// runtime prints if nothing recovers, shows where the call was issued —
// Stack shows where it died).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic in loop body: %v", e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// stackBytes bounds the captured worker stack. Fault paths are cold; 16 KiB
// keeps several levels of generic frames without being precious about it.
const stackBytes = 16 << 10

// AsPanicError wraps a recovered panic value, capturing the current
// goroutine's stack. A value that already is a *PanicError passes through
// unchanged, so a panic crossing several nested parallel calls keeps the
// innermost (original) stack.
func AsPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	buf := make([]byte, stackBytes)
	return &PanicError{Value: r, Stack: buf[:runtime.Stack(buf, false)]}
}

// Canceled is the control-flow panic value the engine raises when a call's
// context fires at a cancellation checkpoint. It unwinds the call like any
// fault (the lease ledger has already been aborted by the checkpoint) and
// is translated back into a plain ctx.Err() by the public error-returning
// entry points — user code only ever sees context.Canceled or
// context.DeadlineExceeded.
type Canceled struct{ Err error }

func (c *Canceled) Error() string { return "parallel: call canceled: " + c.Err.Error() }

func (c *Canceled) Unwrap() error { return c.Err }

// CancelCause returns the context error carried by a recovered value r when
// r is the engine's cancellation panic — bare, or wrapped in a *PanicError
// because the checkpoint fired on a pool worker — and nil for every other
// panic value.
func CancelCause(r any) error {
	if c, ok := r.(*Canceled); ok {
		return c.Err
	}
	if pe, ok := r.(*PanicError); ok {
		if c, ok := pe.Value.(*Canceled); ok {
			return c.Err
		}
	}
	return nil
}
