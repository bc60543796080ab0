package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// The runtime tests construct pools explicitly (NewRuntime(8)) so the
// chunk-stealing path is exercised even on machines where the default pool
// would be small.

func TestRuntimeForCoversEveryIndexOnce(t *testing.T) {
	rt := NewRuntime(8)
	for _, n := range []int{0, 1, 2, 7, 100, 10000} {
		for _, grain := range []int{0, 1, 3, 64, 100000} {
			hits := make([]int32, n)
			rt.For(n, grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d hit %d times", n, grain, i, h)
				}
			}
		}
	}
}

func TestRuntimeForRangeChunkContract(t *testing.T) {
	rt := NewRuntime(8)
	n, grain := 100003, 1234
	var total, chunks int64
	rt.ForRange(n, grain, func(lo, hi int) {
		if lo >= hi || hi-lo > grain {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		if lo%grain != 0 {
			t.Errorf("chunk start %d not aligned to grain", lo)
		}
		atomic.AddInt64(&total, int64(hi-lo))
		atomic.AddInt64(&chunks, 1)
	})
	if total != int64(n) {
		t.Fatalf("chunks cover %d indices, want %d", total, n)
	}
	if want := int64((n + grain - 1) / grain); chunks != want {
		t.Fatalf("%d chunks, want %d", chunks, want)
	}
}

func TestRuntimeNestedForNoDeadlock(t *testing.T) {
	// A small pool with nested parallel loops: every participant of the
	// outer loop starts an inner one. The caller-participates design must
	// complete without deadlock regardless of pool saturation.
	rt := NewRuntime(2)
	var sum atomic.Int64
	rt.For(64, 1, func(i int) {
		rt.For(64, 1, func(j int) {
			sum.Add(1)
		})
	})
	if sum.Load() != 64*64 {
		t.Fatalf("nested loops ran %d bodies, want %d", sum.Load(), 64*64)
	}
}

func TestRuntimeForRangeWSlots(t *testing.T) {
	rt := NewRuntime(8)
	maxSlots := rt.MaxSlots()
	if maxSlots != 8 {
		t.Fatalf("MaxSlots = %d, want 8", maxSlots)
	}
	// Per-slot counters must sum to n: slots are exclusive per participant.
	counts := make([]int64, maxSlots*8) // padded stride to dodge sharing
	n := 1 << 16
	rt.ForRangeW(n, 128, func(w, lo, hi int) {
		if w < 0 || w >= maxSlots {
			t.Errorf("slot %d out of range [0,%d)", w, maxSlots)
		}
		counts[w*8] += int64(hi - lo)
	})
	var total int64
	for w := 0; w < maxSlots; w++ {
		total += counts[w*8]
	}
	if total != int64(n) {
		t.Fatalf("slot counters sum to %d, want %d", total, n)
	}
}

func TestRuntimeReduceDeterministicNonCommutative(t *testing.T) {
	rt := NewRuntime(8)
	n := 3000
	got := ReduceIn(rt, n, 7, "",
		func(i int) string { return string(rune('a' + i%26)) },
		func(a, b string) string { return a + b })
	want := ""
	for i := 0; i < n; i++ {
		want += string(rune('a' + i%26))
	}
	if got != want {
		t.Fatal("runtime reduce broke the deterministic combination order")
	}
}

// timeout is the deadlock checks' generous bound, only hit on deadlock. It
// is a timer rather than a sleeping goroutine: such a goroutine outlives its
// test and exits seconds later, inside whichever test is counting
// goroutines then.
func timeout() <-chan time.Time {
	return time.After(2 * time.Second)
}

func TestRuntimeSingleWorkerIsSerial(t *testing.T) {
	rt := NewRuntime(1)
	// With no pool workers the caller runs everything; concurrent access
	// without atomics must be safe.
	count := 0
	rt.For(10000, 64, func(i int) { count++ })
	if count != 10000 {
		t.Fatalf("serial runtime ran %d bodies", count)
	}
}

func TestOrResolvesNil(t *testing.T) {
	if Or(nil) != Default() {
		t.Fatal("Or(nil) must return the default runtime")
	}
	rt := NewRuntime(2)
	if Or(rt) != rt {
		t.Fatal("Or must pass through a non-nil runtime")
	}
}

// goroutines returns the current goroutine count after giving exiting
// goroutines a moment to unwind.
func goroutines() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// settledGoroutines returns the process goroutine count once it has stopped
// changing: the same reading over several consecutive polls. Goroutines that
// earlier tests' runtimes and jobs left exiting would otherwise be counted
// as part of a baseline that then drops under the test. After a few seconds
// without settling it returns the latest reading.
func settledGoroutines() int {
	const polls = 10
	deadline := time.Now().Add(5 * time.Second)
	n, same := goroutines(), 0
	for same < polls && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		if m := goroutines(); m != n {
			n, same = m, 0
		} else {
			same++
		}
	}
	return n
}

func TestRuntimeCloseStopsPoolWorkers(t *testing.T) {
	before := settledGoroutines()
	rt := NewRuntime(9)
	// Run real work so workers have been woken at least once.
	var total atomic.Int64
	rt.For(100000, 100, func(i int) { total.Add(int64(i)) })
	if got := goroutines(); got < before+8 {
		t.Fatalf("expected 8 pool goroutines to be alive, have %d vs %d before", got, before)
	}
	rt.Close()
	rt.Close() // idempotent
	// Workers park between jobs and exit on the shutdown sentinel; poll
	// instead of assuming a scheduling order.
	deadline := time.Now().Add(5 * time.Second)
	for goroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("pool goroutines leaked after Close: %d alive, want back to %d", goroutines(), before)
		}
		time.Sleep(time.Millisecond)
	}
	// A closed runtime still computes — every chunk on the caller.
	total.Store(0)
	rt.For(1000, 10, func(i int) { total.Add(1) })
	if total.Load() != 1000 {
		t.Fatalf("closed runtime ran %d of 1000 iterations", total.Load())
	}
	if got := goroutines(); got > before {
		t.Fatalf("running on a closed runtime revived %d goroutines", got-before)
	}
}

func TestAdmitReleaseBoundToAcquiredChannel(t *testing.T) {
	// A release must drain the semaphore channel the slot was ACQUIRED on.
	// Hold a slot on the original channel, swap the limit (new channel),
	// fill the new channel, then release the old slot: the new channel must
	// stay full — a release that loaded the current channel would steal the
	// new call's token and transiently admit more than the limit.
	rt := NewRuntime(2)
	defer rt.Close()
	rt.SetInflightLimit(1)
	oldSlot, err := rt.Acquire(nil)
	if err != nil {
		t.Fatalf("Acquire on a free semaphore: %v", err)
	}
	rt.SetInflightLimit(1) // swap channels while oldSlot is held
	newSlot, err := rt.Acquire(nil)
	if err != nil {
		t.Fatalf("Acquire on the fresh semaphore: %v", err)
	}
	oldSlot.Release() // must drain the OLD channel only
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := rt.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("release after a limit swap freed a slot on the NEW semaphore: err = %v, want DeadlineExceeded", err)
	}
	newSlot.Release()
	s, err := rt.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after the new slot freed: %v", err)
	}
	s.Release()
}

func TestAdmitWaiterOnSwappedChannelUnblocks(t *testing.T) {
	// A nil-context Acquire queued on a full semaphore must be admitted
	// when the slot holder releases, even if SetInflightLimit swapped the
	// channel in between: the holder's release is bound to the old channel
	// the waiter is queued on. Before AdmitSlot bound the pair, the
	// release went to the new channel and the waiter hung forever.
	rt := NewRuntime(2)
	defer rt.Close()
	rt.SetInflightLimit(1)
	held, err := rt.Acquire(nil)
	if err != nil {
		t.Fatalf("Acquire on a free semaphore: %v", err)
	}
	admitted := make(chan AdmitSlot)
	go func() {
		s, _ := rt.Acquire(nil) // nil ctx: waits indefinitely
		admitted <- s
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter queue on the old semaphore
	rt.SetInflightLimit(4)            // swap while the waiter is queued
	held.Release()                    // drains the old channel, admitting the waiter
	select {
	case s := <-admitted:
		s.Release()
	case <-timeout():
		t.Fatal("waiter queued on the swapped-out semaphore was never admitted")
	}
}

func TestRuntimeCloseRacingCalls(t *testing.T) {
	// Close while parallel calls are in flight: the calls must complete
	// correctly (possibly serially) and nothing may panic.
	rt := NewRuntime(4)
	done := make(chan int64)
	for g := 0; g < 4; g++ {
		go func() {
			var sum atomic.Int64
			for r := 0; r < 50; r++ {
				rt.For(10000, 64, func(i int) { sum.Add(1) })
			}
			done <- sum.Load()
		}()
	}
	time.Sleep(2 * time.Millisecond)
	rt.Close()
	for g := 0; g < 4; g++ {
		if got := <-done; got != 50*10000 {
			t.Fatalf("a call racing Close lost iterations: %d of %d", got, 50*10000)
		}
	}
}

// spin keeps the calling goroutine busy for d.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// BenchmarkParkedWorkerFork times a small fork whose pool worker has
// parked: ForRange jobs of 2 and 8 equal chunks of busy work, totalling 20,
// 50 and 100 µs, on NewRuntime(2), with the caller busy for 30 µs between
// jobs, as between a service's small calls. It reports the median µs per
// job and the share of chunks the pool worker stole (Runtime.Metrics). A
// job the caller runs alone takes its total; a worker that joins at once
// halves it.
func BenchmarkParkedWorkerFork(b *testing.B) {
	for _, chunks := range []int{2, 8} {
		for _, total := range []time.Duration{20 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond} {
			b.Run(fmt.Sprintf("chunks=%d/total=%dus", chunks, total.Microseconds()), func(b *testing.B) {
				rt := NewRuntime(2)
				defer rt.Close()
				per := total / time.Duration(chunks)
				body := func(lo, hi int) {
					for range hi - lo {
						spin(per)
					}
				}
				lat := make([]time.Duration, 0, b.N)
				m0 := rt.Metrics()
				for i := 0; i < b.N; i++ {
					spin(30 * time.Microsecond)
					t0 := time.Now()
					rt.ForRange(chunks, 1, body)
					lat = append(lat, time.Since(t0))
				}
				m1 := rt.Metrics()
				slices.Sort(lat)
				b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "us/job")
				stolen := m1.ChunksStolen - m0.ChunksStolen
				all := stolen + m1.ChunksByOwner - m0.ChunksByOwner
				b.ReportMetric(float64(stolen)/float64(max(all, 1)), "stolen-share")
			})
		}
	}
}
