package dist

import (
	"math"

	"repro/internal/parallel"
)

// This file is the record-distribution half of the package: the paper's
// Blocked Distributing step (Section 3.2, Figure 2) — a stable, race-free
// redistribution of records to buckets via exact counting. The input is
// split into consecutive subarrays; a counting matrix C (one row per
// subarray, one column per bucket) is filled in parallel, turned into
// per-subarray write offsets X by a column-major prefix sum, and then
// records are scattered to disjoint destinations. No atomics are needed,
// and the output is stable: records of the same bucket keep their input
// order.
//
// It is one engine with a parallel body (distribute) and a serial body
// (distributeSerial) for cache-resident subproblems, both ending in one
// scatter loop. The caller owns the counting pass: its fill function
// classifies every record into a pooled id plane and counts it, so the
// classifier (semisort's user hash, single heavy probe and light-id
// extraction) runs exactly once per record; the engine prefixes the counts
// and replays the ids. Three extensions serve the semisort hot path:
//
//   - A per-record uint64 side array (semisort's cached user hash) moves
//     with the records, so deeper recursion levels never recompute it.
//     Buckets at or above hLive skip it: they are final (semisort's heavy
//     buckets) and never re-read their hashes — the hLive dead suffix.
//   - A fill pass may absorb a record: consume it itself (collect-reduce
//     folds its value into a per-subarray accumulator right there) and
//     write an id >= nB, such as the Absorbed sentinel. Absorbed records
//     are neither counted nor moved, and since they need no room the
//     destination is sized by the caller's dest(kept) once the survivor
//     count is exact — under heavy skew a level's scatter buffer is
//     O(survivors), not O(n).
//   - All transient state (the id plane, the counting matrix, the column
//     totals) comes from the runtime's Scratch arena, so repeated calls are
//     allocation-free in steady state, and callers own starts.
//
// Entry points: StableFilledInto/SerialFilledInto scatter into a
// caller-owned mirror of src; StableAbsorbInto/SerialAbsorbInto size the
// destination through dest; Stable/Serial are the baselines' closure
// wrappers (bucketOf called once per record during counting).

// MaxLen is the largest supported input length. Offsets are kept in 32-bit
// cells so the counting matrix stays compact (the paper sizes C and X to fit
// in last-level cache); this bounds inputs to 2^31-1 records, which covers
// the paper's largest experiments (10^9).
const MaxLen = math.MaxInt32

// MaxBuckets bounds nB so bucket ids fit the 2-byte id plane.
const MaxBuckets = 1 << 16

// Absorbed is the id a fill pass writes for a record it consumed itself.
// Any id >= nB marks an absorbed record; Absorbed is the top 2-byte id, so
// it does for every nB the absorbing engines accept (nB < MaxBuckets).
const Absorbed = ^uint16(0)

// NumSubarrays returns how many subarrays an input of length n is split
// into when each subarray holds l records.
func NumSubarrays(n, l int) int {
	if n <= 0 {
		return 0
	}
	return (n + l - 1) / l
}

// Stable scatters src into dst, grouping records by bucket id, on the given
// runtime (nil selects the shared default).
//
// bucketOf(i) must return the bucket of src[i] in [0, nB); nB is at most
// MaxBuckets. bucketOf is called exactly once per record (during counting);
// the ids are cached in the pooled id plane and replayed during the
// scatter, so expensive classifiers (pivot binary search for samplesort)
// are not paid twice. l is the subarray length. dst must have the same
// length as src and must not alias it.
//
// The returned slice has nB+1 entries; bucket j occupies dst[starts[j]:
// starts[j+1]]. Records within a bucket preserve their src order.
func Stable[R any](rt *parallel.Runtime, src, dst []R, nB, l int, bucketOf func(i int) int) []int {
	return StableFilledInto(rt, src, dst, nil, nil, nB, l, nB,
		func(lo, hi int, ids []uint16, row []int32) {
			for j := lo; j < hi; j++ {
				b := bucketOf(j)
				ids[j-lo] = uint16(b)
				row[b]++
			}
		}, make([]int, nB+1))
}

// StableFilledInto is the parallel engine scattering into a caller-owned
// dst of len(src) records, with bucket boundaries written into starts (nB+1
// entries). fill(lo, hi, ids, row) must classify records [lo, hi) of src,
// writing ids[j-lo] in [0, nB) and incrementing row[id] once per record; it
// is invoked once per subarray, concurrently across subarrays.
//
// hsrc/hdst, when non-nil, are the per-record side arrays: hdst[p] receives
// hsrc[j] whenever dst[p] receives src[j] and src[j]'s bucket is below
// hLive (pass nB to carry every value). Records within a bucket keep their
// src order.
func StableFilledInto[R any](rt *parallel.Runtime, src, dst []R, hsrc, hdst []uint64, nB, l int, hLive int, fill func(lo, hi int, ids []uint16, row []int32), starts []int) []int {
	checkMirror(len(src), len(dst), hsrc, hdst)
	return distribute(rt, src, hsrc, nB, l, hLive, fill, starts,
		func(int) ([]R, []uint64) { return dst, hdst })
}

// StableAbsorbInto is the parallel engine with absorbing: fill may write
// Absorbed (and count nothing) for a record it consumed itself, so nB must
// leave the sentinel free (nB < MaxBuckets). fill sweeps its subarray in
// index order, so per-subarray absorption is input-ordered.
//
// dest(kept) is called exactly once, after counting, with the number of
// surviving records; it must return a record slice of length >= kept and,
// when hsrc is non-nil, a side slice of the same length (nil otherwise).
// Survivors land stably in dst[0:kept] grouped by bucket, carrying their
// side values for buckets below hLive as in StableFilledInto. src and hsrc
// are never written by the engine.
func StableAbsorbInto[R any](rt *parallel.Runtime, src []R, hsrc []uint64, nB, l, hLive int,
	fill func(lo, hi int, ids []uint16, row []int32), starts []int,
	dest func(kept int) ([]R, []uint64)) []int {
	checkAbsorbing(nB)
	return distribute(rt, src, hsrc, nB, l, hLive, fill, starts, dest)
}

// distribute is the parallel body: count per subarray, prefix, size the
// destination, scatter per subarray.
func distribute[R any](rt *parallel.Runtime, src []R, hsrc []uint64, nB, l, hLive int,
	fill func(lo, hi int, ids []uint16, row []int32), starts []int,
	dest func(kept int) ([]R, []uint64)) []int {
	n := len(src)
	checkArgs(n, nB, len(starts), hsrc)
	if n == 0 {
		clear(starts)
		dest(0)
		return starts
	}
	l = max(l, 1)
	rt = parallel.Or(rt)
	sc := rt.Scratch()
	nSub := NumSubarrays(n, l)

	// Counting pass: C[i*nB+j] = #records of subarray i in bucket j, with
	// every record's id cached for the scatter pass.
	idsBuf := parallel.GetBuf[uint16](sc, n)
	cBuf := parallel.GetBuf[int32](sc, nSub*nB)
	cBuf.Zero()
	ids, c := idsBuf.S, cBuf.S
	rt.For(nSub, 1, func(i int) {
		hi := min((i+1)*l, n)
		fill(i*l, hi, ids[i*l:hi], c[i*nB:(i+1)*nB])
	})

	prefixOffsets(rt, sc, nB, nSub, c, starts)
	dst, hdst := dest(starts[nB])
	checkDest(starts[nB], len(dst), len(hdst), hsrc)

	// Scatter pass: subarrays in parallel, sequential within a subarray so
	// the result is stable and every write destination is exclusive.
	rt.For(nSub, 1, func(i int) {
		lo, hi := i*l, min((i+1)*l, n)
		var hsrcW []uint64
		if hsrc != nil {
			hsrcW = hsrc[lo:hi]
		}
		scatter(src[lo:hi], dst, hsrcW, hdst, ids[lo:hi], c[i*nB:(i+1)*nB], hLive)
	})
	cBuf.Release()
	idsBuf.Release()
	return starts
}

// prefixOffsets turns the counting matrix c into per-subarray write offsets
// in place and fills starts: bucket totals, exclusive scan across buckets,
// then per-bucket scan across subarrays.
func prefixOffsets(rt *parallel.Runtime, sc *parallel.Scratch, nB, nSub int, c []int32, starts []int) {
	totalsBuf := parallel.GetBuf[int32](sc, nB)
	totals := totalsBuf.S
	rt.For(nB, 64, func(j int) {
		var s int32
		for i := 0; i < nSub; i++ {
			s += c[i*nB+j]
		}
		totals[j] = s
	})
	sum := 0
	for j := 0; j < nB; j++ {
		starts[j] = sum
		sum += int(totals[j])
	}
	starts[nB] = sum
	rt.For(nB, 64, func(j int) {
		off := int32(starts[j])
		for i := 0; i < nSub; i++ {
			cnt := c[i*nB+j]
			c[i*nB+j] = off
			off += cnt
		}
	})
	totalsBuf.Release()
}

// Serial is the closure wrapper of the serial engine (see Stable): same
// contract, but it spawns no goroutines and takes its scratch from the
// shared default arena. Bucket counts that fit a byte get a byte-wide id
// plane, halving id traffic (the radix baseline's 256 digit buckets).
func Serial[R any](src, dst []R, nB int, bucketOf func(i int) int) []int {
	starts := make([]int, nB+1)
	if nB <= 1<<8 {
		return SerialFilledInto(nil, src, dst, nil, nil, nB, nB, fillFrom[uint8](bucketOf), starts)
	}
	return SerialFilledInto(nil, src, dst, nil, nil, nB, nB, fillFrom[uint16](bucketOf), starts)
}

// fillFrom adapts a per-record bucketOf closure to a serial fill pass.
func fillFrom[I uint8 | uint16](bucketOf func(i int) int) func(ids []I, counts []int32) {
	return func(ids []I, counts []int32) {
		for i := range ids {
			b := bucketOf(i)
			ids[i] = I(b)
			counts[b]++
		}
	}
}

// SerialFilledInto is the sequential single-subarray form of
// StableFilledInto for cache-resident subproblems, against an explicit
// arena (nil selects the shared default): fill(ids, counts) classifies
// every record of src in one pass, writing ids[i] in [0, nB) and
// incrementing counts[id] once per record. The id plane is generic over 1-
// and 2-byte ids; byte-wide ids (nB <= 256) halve id traffic, which Serial
// uses for the radix baseline's 256 digit buckets. Nothing in it touches
// the allocator: its scratch comes from the arena.
func SerialFilledInto[R any, I uint8 | uint16](sc *parallel.Scratch, src, dst []R, hsrc, hdst []uint64, nB int, hLive int, fill func(ids []I, counts []int32), starts []int) []int {
	checkMirror(len(src), len(dst), hsrc, hdst)
	return distributeSerial(sc, src, hsrc, nB, hLive, fill, starts,
		func(int) ([]R, []uint64) { return dst, hdst })
}

// SerialAbsorbInto is the sequential single-subarray form of
// StableAbsorbInto (see SerialFilledInto): fill(ids, counts) classifies
// every record of src in one pass, absorbed records get Absorbed and are
// not counted, and the engine prefixes, sizes the destination through dest,
// and replays on the calling goroutine.
func SerialAbsorbInto[R any](sc *parallel.Scratch, src []R, hsrc []uint64, nB, hLive int,
	fill func(ids []uint16, counts []int32), starts []int,
	dest func(kept int) ([]R, []uint64)) []int {
	checkAbsorbing(nB)
	return distributeSerial(sc, src, hsrc, nB, hLive, fill, starts, dest)
}

// distributeSerial is the serial body: one counting pass, one prefix pass
// over nB counters, one scatter pass.
func distributeSerial[R any, I uint8 | uint16](sc *parallel.Scratch, src []R, hsrc []uint64, nB, hLive int,
	fill func(ids []I, counts []int32), starts []int,
	dest func(kept int) ([]R, []uint64)) []int {
	n := len(src)
	checkArgs(n, nB, len(starts), hsrc)
	if uint64(nB) > uint64(^I(0))+1 {
		panic("dist: bucket ids do not fit the id plane")
	}
	if n == 0 {
		clear(starts)
		dest(0)
		return starts
	}
	if sc == nil {
		sc = parallel.Default().Scratch()
	}
	idsBuf := parallel.GetBuf[I](sc, n)
	countsBuf := parallel.GetBuf[int32](sc, nB)
	countsBuf.Zero()
	counts := countsBuf.S
	fill(idsBuf.S, counts)
	// counts arrives as the bucket histogram and leaves as write cursors.
	off := int32(0)
	for b, c := range counts {
		starts[b] = int(off)
		counts[b] = off
		off += c
	}
	starts[nB] = int(off)
	dst, hdst := dest(int(off))
	checkDest(int(off), len(dst), len(hdst), hsrc)
	scatter(src, dst, hsrc, hdst, idsBuf.S, counts, hLive)
	countsBuf.Release()
	idsBuf.Release()
	return starts
}

// scatter is the one scatter loop of both bodies. Each record src[j] whose
// id is a bucket (id < len(cur)) moves to dst[cur[id]], advancing that
// bucket's write cursor, and carries hsrc[j] into hdst when hsrc is non-nil
// and the bucket is below hLive. An id >= len(cur) marks a record the fill
// pass absorbed: it was not counted and is not moved.
func scatter[R any, I uint8 | uint16](src, dst []R, hsrc, hdst []uint64, ids []I, cur []int32, hLive int) {
	ids = ids[:len(src)] // equal-length windows: no bounds checks per record
	if hsrc == nil {
		for j := range src {
			b := ids[j]
			if int(b) >= len(cur) {
				continue
			}
			dst[cur[b]] = src[j]
			cur[b]++
		}
		return
	}
	hsrc = hsrc[:len(src)]
	for j := range src {
		b := ids[j]
		if int(b) >= len(cur) {
			continue
		}
		p := cur[b]
		dst[p] = src[j]
		if int(b) < hLive {
			hdst[p] = hsrc[j]
		}
		cur[b] = p + 1
	}
}

// checkArgs validates the contract common to both bodies.
func checkArgs(n, nB, nStarts int, hsrc []uint64) {
	if n > MaxLen {
		panic("dist: input longer than 2^31-1 records")
	}
	if nB > MaxBuckets {
		panic("dist: more than 2^16 buckets")
	}
	if nStarts != nB+1 {
		panic("dist: starts length must be nB+1")
	}
	if hsrc != nil && len(hsrc) != n {
		panic("dist: hash array must match src length")
	}
}

// checkMirror validates a caller-owned destination mirroring src.
func checkMirror(n, nDst int, hsrc, hdst []uint64) {
	if nDst != n {
		panic("dist: src and dst length mismatch")
	}
	if hsrc != nil && len(hdst) != n {
		panic("dist: hash arrays must match src length")
	}
}

// checkAbsorbing keeps the Absorbed sentinel out of the bucket range.
func checkAbsorbing(nB int) {
	if nB > int(Absorbed) {
		panic("dist: absorbing engines need nB <= 65535 (Absorbed sentinel)")
	}
}

// checkDest validates what dest returned against the survivor count.
func checkDest(kept, nDst, nHDst int, hsrc []uint64) {
	if nDst < kept {
		panic("dist: dest returned a record slice shorter than the survivor count")
	}
	if hsrc != nil && nHDst < kept {
		panic("dist: dest returned a hash slice shorter than the survivor count")
	}
}

// SweepBytes is the byte volume one blocked-distribution sweep writes, for
// the observability plane's bytes-moved accounting (obs.CtrBytesMoved):
// every scattered record plus one 8-byte hash-plane word per record whose
// cached hash is carried. The carried count is the driver's to derive from
// the level's prefix array — the scatter carries hashes only for buckets
// below hLive (light buckets; heavy buckets are final and their hashes are
// dead — see the hLive dead-suffix contract above), so every sweep carries
// the light prefix.
func SweepBytes(recBytes, scattered, hashCarried int64) int64 {
	return scattered*recBytes + hashCarried*8
}
