package parallel

// Pack copies the elements of src whose flag is true into a fresh slice,
// preserving order. It is the standard parallel filter primitive.
func Pack[T any](src []T, keep func(i int) bool) []T {
	return PackIn(Default(), src, keep)
}

// PackIn is Pack on an explicit runtime; the per-block counters come from
// the runtime's arena.
func PackIn[T any](rt *Runtime, src []T, keep func(i int) bool) []T {
	return packTo(rt, len(src), keep, func(out []T, w, i int) { out[w] = src[i] })
}

// PackIndexIn returns the indices i in [0, n) for which keep(i) is true, in
// increasing order (the filter primitive when the payload *is* the index).
// Unlike PackIn over a staged identity array, it materializes nothing but
// the result: indices are written directly to their final positions.
func PackIndexIn(rt *Runtime, n int, keep func(i int) bool) []int {
	return packTo(rt, n, keep, func(out []int, w, i int) { out[w] = i })
}

// packTo is the shared count/scan/write skeleton of the pack primitives:
// count kept indices per block, prefix the block counts, then write
// each kept index i through write(out, w, i) at its exact position. The
// per-block counters come from the runtime's arena.
func packTo[T any](rt *Runtime, n int, keep func(i int) bool, write func(out []T, w, i int)) []T {
	rt = resolve(rt)
	if n == 0 {
		return nil
	}
	nBlocks := 8 * Workers()
	if nBlocks > n {
		nBlocks = n
	}
	counts := GetBuf[int](rt.Scratch(), nBlocks)
	rt.Blocks(n, nBlocks, func(b, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		counts.S[b] = c
	})
	total := 0
	for b, c := range counts.S {
		counts.S[b] = total
		total += c
	}
	out := make([]T, total)
	rt.Blocks(n, nBlocks, func(b, lo, hi int) {
		w := counts.S[b]
		for i := lo; i < hi; i++ {
			if keep(i) {
				write(out, w, i)
				w++
			}
		}
	})
	counts.Release()
	return out
}
