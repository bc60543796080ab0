// Steady-state benchmarks for the persistent runtime: the service scenario
// of repeated semisort calls sharing one worker pool and buffer arena.
// Run with -benchmem: allocs/op is the headline number — near zero after
// warm-up, versus one O(n) auxiliary array plus per-level counting matrices,
// id caches, and sample tables per call without buffer reuse.
package semisort_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	semisort "repro"
	"repro/internal/bench"
	"repro/internal/dist"
	"repro/internal/parallel"
)

func steadyData(n int, spec dist.Spec) []bench.P64 {
	return bench.Make64(n, spec, 42)
}

// benchSteady times repeated SortEq calls on data. With afterGC set, a GC
// runs untimed before each call, as a service's own allocations trigger
// them: B/op and allocs/op then show what the arena keeps across a GC.
func benchSteady(b *testing.B, data []bench.P64, afterGC bool, opts ...semisort.Option) {
	key := func(p bench.P64) uint64 { return p.K }
	eq := func(x, y uint64) bool { return x == y }
	work := make([]bench.P64, len(data))
	for i := 0; i < 3; i++ { // warm the arena before measuring
		parallel.Copy(work, data)
		semisort.SortEq(work, key, semisort.Hash64, eq, opts...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		parallel.Copy(work, data)
		if afterGC {
			runtime.GC()
		}
		b.StartTimer()
		semisort.SortEq(work, key, semisort.Hash64, eq, opts...)
	}
}

// BenchmarkSortEqSteadyState measures repeated SortEq calls on the shared
// default runtime — the high-throughput service steady state the runtime
// refactor targets. Every temporary comes from the runtime's arena, so
// allocs/op is (near) zero after warm-up.
func BenchmarkSortEqSteadyState(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		spec    dist.Spec
		afterGC bool
	}{
		{"distinct", 1 << 19, dist.Spec{Kind: dist.Uniform, Param: 1 << 19}, false},
		// The cold-arena row: a GC before every call.
		{"distinct/after-gc", 1 << 19, dist.Spec{Kind: dist.Uniform, Param: 1 << 19}, true},
		{"zipf-1.2", 1 << 19, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, false},
		// One stream flush: a batch below the base-case threshold is a
		// single leaf, with no distribution level above it.
		{"batch-4096/zipf-1.2", 4096, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, false},
	} {
		data := steadyData(c.n, c.spec)
		b.Run(c.name, func(b *testing.B) { benchSteady(b, data, c.afterGC) })
	}
	// The acceptance-tracking cell of the perf trajectory: uniform 64-bit
	// distinct keys at n=10^7 (also recorded by `make bench` into
	// BENCH_steady.json).
	b.Run("distinct-10M", func(b *testing.B) {
		n := 10_000_000
		benchSteady(b, steadyData(n, dist.Spec{Kind: dist.Uniform, Param: float64(n)}), false)
	})
}

// BenchmarkSortEqSteadyStateOwnRuntime is the same workload on an
// explicitly created runtime, as a service sharing one pool across tenants
// would run it.
func BenchmarkSortEqSteadyStateOwnRuntime(b *testing.B) {
	rt := semisort.NewRuntime(0)
	data := steadyData(1<<19, dist.Spec{Kind: dist.Zipfian, Param: 1.2})
	benchSteady(b, data, false, semisort.WithRuntime(rt))
}

// BenchmarkDedupStreamSteadyState is the streaming service's steady state:
// a closed loop of one producer submitting Zipf-1.2 records into a
// DedupStream (batch 4096, the 2ms deadline of the benchmark's stream
// workload) and an in-order collector awaiting each result. One op is one
// pass over the records; the stream and its seen-set persist across ops.
// It reports Mrec/s and heap objects per record — two of them are the
// result channel Submit returns.
func BenchmarkDedupStreamSteadyState(b *testing.B) {
	data := steadyData(1<<18, dist.Spec{Kind: dist.Zipfian, Param: 1.2})
	s := semisort.NewDedupStream(func(p bench.P64) uint64 { return p.K }, semisort.Hash64,
		func(x, y uint64) bool { return x == y },
		semisort.WithBatchSize(4096), semisort.WithMaxWait(2*time.Millisecond))
	chans := make([]<-chan semisort.StreamResult[semisort.DedupKept], len(data))
	pass := func() {
		var published atomic.Int64
		notify := make(chan struct{}, 1)
		go func() {
			for i, p := range data {
				chans[i] = s.Submit(p)
				if i%256 == 255 || i == len(data)-1 {
					published.Store(int64(i + 1))
					select {
					case notify <- struct{}{}:
					default:
					}
				}
			}
		}()
		for i := range chans {
			for int(published.Load()) <= i {
				<-notify
			}
			if r := <-chans[i]; r.Err != nil {
				b.Fatalf("record %d: %v", i, r.Err)
			}
			chans[i] = nil
		}
	}
	pass() // warm the seen-set and the flusher's scratch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	recs := float64(b.N) * float64(len(data))
	b.ReportMetric(recs/b.Elapsed().Seconds()/1e6, "Mrec/s")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/recs, "allocs/rec")
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
}

// BenchmarkHistogramStrSteadyState measures repeated HistogramStr calls on a
// warmed default runtime, over the steady gate's string shape: 2^19 records
// with Zipf 0.8 identities, a 12-byte shared prefix and a 4-28 byte tail.
// It reports Mrec/s and allocs/op; the output keys cost one allocation per
// block of emitted keys, not one per distinct key.
func BenchmarkHistogramStrSteadyState(b *testing.B) {
	data := bench.MakeStr(1<<19, dist.StrSpec{Spec: dist.Spec{Kind: dist.Zipfian, Param: 0.8},
		MinLen: 4, MaxLen: 28, Prefix: 12}, 42)
	key := func(p bench.PStr) string { return p.K }
	for i := 0; i < 3; i++ { // warm the arena before measuring
		semisort.HistogramStr(data, key)
	}
	b.ReportAllocs()
	calls := 0
	for b.Loop() {
		semisort.HistogramStr(data, key)
		calls++
	}
	b.ReportMetric(float64(calls*len(data))/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

// BenchmarkPipelineSteadyState measures the flagship chain,
// Query(a).Dedup().JoinEq(dim).TopK(10), on a warmed default runtime: 2^17
// records against a distinct-keyed dimension of 2^14 records (keys 8j+1, as
// in the benchmark's pipeline op). The Dedup folds into the join's counting
// terminal, so B/op and allocs/op show what the chain keeps beyond its
// top-k result. The after-gc row runs a GC, untimed, before each call.
func BenchmarkPipelineSteadyState(b *testing.B) {
	const n = 1 << 17
	key := func(p bench.P64) uint64 { return p.K }
	eq := func(x, y uint64) bool { return x == y }
	dim := make([]bench.P64, n/8)
	for j := range dim {
		dim[j] = bench.P64{K: uint64(8*j + 1), V: uint64(j)}
	}
	for _, c := range []struct {
		name    string
		spec    dist.Spec
		afterGC bool
	}{
		{"uniform", dist.Spec{Kind: dist.Uniform, Param: n}, false},
		{"uniform/after-gc", dist.Spec{Kind: dist.Uniform, Param: n}, true},
		{"zipf-1.2", dist.Spec{Kind: dist.Zipfian, Param: 1.2}, false},
	} {
		data := steadyData(n, c.spec)
		run := func() { semisort.Query(data, key, semisort.Hash64, eq).Dedup().JoinEq(dim, key).TopK(10) }
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < 3; i++ { // warm the arena before measuring
				run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.afterGC {
					b.StopTimer()
					runtime.GC()
					b.StartTimer()
				}
				run()
			}
			b.ReportMetric(float64(b.N)*float64(len(data)+len(dim))/b.Elapsed().Seconds()/1e6, "Mrec/s")
		})
	}
}
