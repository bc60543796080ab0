// Package parallel provides the concurrency substrate of the reproduction:
// a persistent worker-pool Runtime with chunk-stealing parallel loops, a
// Scratch buffer arena for allocation-free steady-state kernels, and the
// work-span-style primitives of the paper (parallel_for over index ranges,
// parallel reduce, pack). All primitives are deterministic in
// their results: parallelism only affects scheduling, never output values.
//
// The package-level functions run on the shared Default runtime; kernels
// that receive an explicit *Runtime (via core.Config) use the *In variants
// so one service-wide pool and arena can be shared.
package parallel

import "runtime"

// DefaultGrain is the sequential grain size used when a caller passes a
// non-positive grain. It is chosen so that per-chunk scheduling overhead is
// amortized over enough work for cheap loop bodies.
const DefaultGrain = 2048

// Workers reports the current parallelism level (GOMAXPROCS).
func Workers() int { return runtime.GOMAXPROCS(0) }

// SetWorkers sets GOMAXPROCS and returns the previous value. It is used by
// the benchmark harness to reproduce the paper's thread-scaling experiments:
// the pool goroutines of a Runtime outlive the change, but only GOMAXPROCS
// of them run at a time, which is what the experiments measure.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return runtime.GOMAXPROCS(n)
}

// For runs body(i) for every i in [0, n) in parallel on the default runtime.
func For(n, grain int, body func(i int)) { Default().For(n, grain, body) }

// ForRange splits [0, n) into chunks of at most grain indices and runs
// body(lo, hi) on the chunks in parallel on the default runtime.
func ForRange(n, grain int, body func(lo, hi int)) { Default().ForRange(n, grain, body) }

// Blocks splits [0, n) into nBlocks nearly equal contiguous blocks and runs
// body(b, lo, hi) for each block b in parallel on the default runtime.
func Blocks(n, nBlocks int, body func(b, lo, hi int)) { Default().Blocks(n, nBlocks, body) }

// BlockRange returns the half-open range [lo, hi) of block b when [0, n) is
// split into nBlocks nearly equal contiguous blocks.
func BlockRange(n, nBlocks, b int) (lo, hi int) {
	q, r := n/nBlocks, n%nBlocks
	lo = b*q + min(b, r)
	hi = lo + q
	if b < r {
		hi++
	}
	return lo, hi
}

// Reduce computes comb over mapf(i) for all i in [0, n) in parallel.
// comb must be associative and id its identity; the combination order is
// deterministic (chunk partials folded in index order), so non-commutative
// monoids work.
func Reduce[T any](n, grain int, id T, mapf func(i int) T, comb func(T, T) T) T {
	return ReduceIn(Default(), n, grain, id, mapf, comb)
}

// ReduceIn is Reduce on an explicit runtime. Per-chunk partial results go
// through the runtime's arena, so steady-state calls do not allocate.
func ReduceIn[T any](rt *Runtime, n, grain int, id T, mapf func(i int) T, comb func(T, T) T) T {
	if n <= 0 {
		return id
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	rt = resolve(rt)
	chunks := int(chunkCount(n, grain))
	seq := func(lo, hi int) T {
		acc := id
		for i := lo; i < hi; i++ {
			acc = comb(acc, mapf(i))
		}
		return acc
	}
	if chunks == 1 || rt.pool == 0 {
		return seq(0, n)
	}
	partials := GetBuf[T](rt.Scratch(), chunks)
	rt.ForRange(n, grain, func(lo, hi int) {
		partials.S[lo/grain] = seq(lo, hi)
	})
	total := id
	for i := range partials.S {
		total = comb(total, partials.S[i])
	}
	partials.Zero() // drop references held by pooled partials
	partials.Release()
	return total
}

// Copy copies src into dst in parallel on the default runtime. Slices must
// have equal length and must not overlap.
func Copy[T any](dst, src []T) { CopyIn(Default(), dst, src) }

// CopyIn is Copy on an explicit runtime.
func CopyIn[T any](rt *Runtime, dst, src []T) {
	resolve(rt).ForRange(len(src), 1<<16, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}
