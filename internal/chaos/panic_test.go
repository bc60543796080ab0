package chaos_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	semisort "repro"
	"repro/internal/chaos"
)

// recoverPanicError runs fn expecting a contained fault and returns the
// *semisort.PanicError it surfaced (nil if fn completed — meaning the
// injector's ordinal was past the op's total callback count).
func recoverPanicError(t *testing.T, fn func()) (pe *semisort.PanicError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		pe, ok = r.(*semisort.PanicError)
		if !ok {
			t.Fatalf("fault surfaced as %T %v, want *semisort.PanicError", r, r)
		}
	}()
	fn()
	return nil
}

// TestPanicSurfacesAsPanicError injects a panic into the k-th user-callback
// invocation of every op family and asserts the containment contract: the
// fault reaches the calling goroutine as a *PanicError carrying the
// original panic value and the panicking goroutine's stack — never as a
// raw panic, never as a crash of a pool worker.
func TestPanicSurfacesAsPanicError(t *testing.T) {
	data := pairData(60_000, 512, 7) // small domain: heavy keys exist
	rt := semisort.NewRuntime(4)
	defer rt.Close()
	for _, op := range faultOps() {
		for _, k := range []int64{1, 777, 30_000} {
			t.Run(fmt.Sprintf("%s/k=%d", op.name, k), func(t *testing.T) {
				val := fmt.Sprintf("boom:%s:%d", op.name, k)
				in := chaos.PanicAt(k, val)
				pe := recoverPanicError(t, func() { op.run(t, in, rt, data) })
				if in.Calls() < k {
					t.Fatalf("injector never reached call %d (op made %d callback calls)", k, in.Calls())
				}
				if pe == nil {
					t.Fatal("op completed despite an injected panic")
				}
				if pe.Value != val {
					t.Fatalf("PanicError.Value = %v, want %q", pe.Value, val)
				}
				if len(pe.Stack) == 0 {
					t.Fatal("PanicError.Stack is empty")
				}
			})
		}
	}
}

// TestPanicInKeyAndEq does the same through the other two callback seams:
// the key extractor and the equality test.
func TestPanicInKeyAndEq(t *testing.T) {
	data := pairData(40_000, 256, 11)
	rt := semisort.NewRuntime(4)
	defer rt.Close()

	t.Run("key", func(t *testing.T) {
		in := chaos.PanicAt(500, "key-boom")
		pe := recoverPanicError(t, func() {
			semisort.SortEq(clone(data), chaos.Key(in, keyOf), semisort.Hash64, eqU,
				semisort.WithRuntime(rt), semisort.WithSeed(1))
		})
		if pe == nil || pe.Value != "key-boom" {
			t.Fatalf("got %v, want contained key-boom", pe)
		}
	})
	t.Run("eq", func(t *testing.T) {
		in := chaos.PanicAt(200, "eq-boom")
		pe := recoverPanicError(t, func() {
			semisort.Histogram(data, keyOf, semisort.Hash64, chaos.Eq(in, eqU),
				semisort.WithRuntime(rt), semisort.WithSeed(1))
		})
		if pe == nil || pe.Value != "eq-boom" {
			t.Fatalf("got %v, want contained eq-boom", pe)
		}
	})
}

// TestPipelineFaultRides pins the pipeline's failure contract: a stage
// killed by a callback panic surfaces the *PanicError from the call that
// ran it, the terminal afterwards reports an error instead of half-computed
// data, and the pipeline then counts as consumed (typed reuse panic). An
// eager stage (Sort) runs at its own call; a deferred one (Dedup) runs at
// its consumer, so its fault surfaces there.
func TestPipelineFaultRides(t *testing.T) {
	data := pairData(20_000, 256, 5)
	rt := semisort.NewRuntime(4)
	defer rt.Close()
	for _, tc := range []struct {
		name  string
		quiet func(p *semisort.Pipeline[pair, uint64]) // stages that run nothing yet
		fault func(p *semisort.Pipeline[pair, uint64]) // the call that runs the faulting stage
	}{
		{"eager", func(*semisort.Pipeline[pair, uint64]) {}, func(p *semisort.Pipeline[pair, uint64]) { p.Sort() }},
		{"deferred", func(p *semisort.Pipeline[pair, uint64]) { p.Dedup() }, func(p *semisort.Pipeline[pair, uint64]) { p.Sort() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := chaos.PanicAt(100, "stage-boom")
			p := semisort.Query(data, keyOf, chaos.Hash(in, semisort.Hash64), eqU,
				semisort.WithRuntime(rt), semisort.WithSeed(1))
			if pe := recoverPanicError(t, func() { tc.quiet(p) }); pe != nil {
				t.Fatalf("a deferred stage faulted at its own call: %v", pe)
			}
			pe := recoverPanicError(t, func() { tc.fault(p) })
			if pe == nil || pe.Value != "stage-boom" {
				t.Fatalf("stage fault = %v, want contained stage-boom", pe)
			}
			if out, err := p.RunE(); err == nil {
				t.Fatalf("terminal after a faulted stage returned %d rows and nil error", len(out))
			}
			defer func() {
				if _, ok := recover().(*semisort.PipelineConsumedError); !ok {
					t.Fatal("reuse after a delivered fault did not raise *PipelineConsumedError")
				}
			}()
			p.Run()
		})
	}
}

// TestPipelineFoldedDedupFault pins where a folded Dedup's fault surfaces:
// the join's counting terminal runs the dedup's hashing in its own classify
// sweep, so the panic comes out of TopK and nothing before it faults.
func TestPipelineFoldedDedupFault(t *testing.T) {
	data := pairData(20_000, 256, 6)
	rt := semisort.NewRuntime(4)
	defer rt.Close()
	in := chaos.PanicAt(100, "fold-boom")
	var j *semisort.JoinedPipeline[pair, uint64]
	if pe := recoverPanicError(t, func() {
		j = semisort.Query(data[:10_000], keyOf, chaos.Hash(in, semisort.Hash64), eqU,
			semisort.WithRuntime(rt), semisort.WithSeed(1)).Dedup().JoinEq(data[10_000:], keyOf)
	}); pe != nil {
		t.Fatalf("Dedup or JoinEq faulted before the terminal: %v", pe)
	}
	pe := recoverPanicError(t, func() { j.TopK(8) })
	if pe == nil || pe.Value != "fold-boom" {
		t.Fatalf("terminal fault = %v, want contained fold-boom", pe)
	}
	if _, err := j.TopKE(8); err == nil {
		t.Fatal("terminal after a faulted fold returned nil error")
	}
}

// TestRunAfterFaultEquivalence is the pool-poisoning gate: after a storm of
// contained faults on a runtime, a clean call on that same runtime must
// produce output byte-identical to the same call on a fresh runtime — the
// arena must never see a half-mutated buffer again.
func TestRunAfterFaultEquivalence(t *testing.T) {
	data := pairData(60_000, 512, 7)

	// Reference results from a never-faulted runtime.
	fresh := semisort.NewRuntime(4)
	wantSorted := clone(data)
	semisort.SortEq(wantSorted, keyOf, semisort.Hash64, eqU,
		semisort.WithRuntime(fresh), semisort.WithSeed(1))
	wantHist := semisort.Histogram(data, keyOf, semisort.Hash64, eqU,
		semisort.WithRuntime(fresh), semisort.WithSeed(1))
	wantDedup := semisort.Dedup(data, keyOf, semisort.Hash64, eqU,
		semisort.WithRuntime(fresh), semisort.WithSeed(1))
	fresh.Close()

	// Storm: every op family faulted at several ordinals, all on one runtime.
	rt := semisort.NewRuntime(4)
	defer rt.Close()
	for round := 0; round < 3; round++ {
		for _, op := range faultOps() {
			for _, k := range []int64{1, 1000, 20_000} {
				in := chaos.PanicAt(k, "storm")
				recoverPanicError(t, func() { op.run(t, in, rt, data) })
			}
		}
	}

	// Clean runs on the stormed runtime must match the fresh reference.
	gotSorted := clone(data)
	semisort.SortEq(gotSorted, keyOf, semisort.Hash64, eqU,
		semisort.WithRuntime(rt), semisort.WithSeed(1))
	for i := range wantSorted {
		if gotSorted[i] != wantSorted[i] {
			t.Fatalf("sorted[%d] = %v after fault storm, want %v (pool poisoned)", i, gotSorted[i], wantSorted[i])
		}
	}
	gotHist := semisort.Histogram(data, keyOf, semisort.Hash64, eqU,
		semisort.WithRuntime(rt), semisort.WithSeed(1))
	if len(gotHist) != len(wantHist) {
		t.Fatalf("histogram has %d entries after fault storm, want %d", len(gotHist), len(wantHist))
	}
	for i := range wantHist {
		if gotHist[i] != wantHist[i] {
			t.Fatalf("hist[%d] = %v after fault storm, want %v", i, gotHist[i], wantHist[i])
		}
	}
	gotDedup := semisort.Dedup(data, keyOf, semisort.Hash64, eqU,
		semisort.WithRuntime(rt), semisort.WithSeed(1))
	if len(gotDedup) != len(wantDedup) {
		t.Fatalf("dedup has %d records after fault storm, want %d", len(gotDedup), len(wantDedup))
	}
	for i := range wantDedup {
		if gotDedup[i] != wantDedup[i] {
			t.Fatalf("dedup[%d] = %v after fault storm, want %v", i, gotDedup[i], wantDedup[i])
		}
	}
}

// TestNoGoroutineLeak puts a runtime through panic and cancellation storms
// and asserts the process goroutine count returns to its baseline once the
// runtime closes: workers survive contained panics (they recover and go
// back to their queue) and nothing is left parked on a dead job.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		rt := semisort.NewRuntime(6)
		defer rt.Close()
		data := pairData(40_000, 256, 3)
		for round := 0; round < 5; round++ {
			for _, op := range faultOps() {
				in := chaos.PanicAt(100, "leak-storm")
				recoverPanicError(t, func() { op.run(t, in, rt, data) })
			}
		}
		// Workers must still be alive and participating after the storm:
		// a clean parallel call completes (if the pool had died this would
		// still pass — correctness first — but the leak check below pins
		// the exact goroutine accounting).
		semisort.SortEq(clone(data), keyOf, semisort.Hash64, eqU,
			semisort.WithRuntime(rt), semisort.WithSeed(1))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after fault storm + Close, baseline was %d: leak", g, before)
	}
}
