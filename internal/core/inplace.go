package core

import (
	"time"

	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/seqsort"
)

// This file implements the space-efficient semisort variant sketched in the
// paper's conclusion (Section 6): the authors observe that the in-place
// sorters (IPS4o) owe their efficiency to distributing within the input
// array itself, and propose redesigning the distribution step accordingly
// as future work. Here the Blocked Distributing step is replaced by an
// in-place cycle-chasing permutation over the same heavy/light buckets, and
// base cases reuse a per-worker scratch buffer, so the extra space drops
// from Theta(n) records to O(n + P*alpha + n_L + n_H) bytes — the hash-once
// array (8 bytes per record, permuted along with the records through the
// cycle chase) replaces per-level rehashing, and everything else stays
// sublinear — at the cost the paper predicts: the permutation is unstable,
// and the top-level pass is less parallel than the out-of-place
// distribution.
//
// Like the out-of-place path, each level classifies every record exactly
// once: the counting pass fills a 2-byte id plane (fused with user hashing
// at the top level), and the cycle chase permutes the plane alongside the
// records instead of re-probing the heavy table at every hop.

// SortEqInPlace is semisort= with one 8-byte-per-record hash array of extra
// space. Records with equal keys come out contiguous, but not in input
// order (unstable), and the grouping order may differ from SortEq's.
// Deterministic for a fixed seed.
func SortEqInPlace[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg Config) {
	s := newSorter(a, key, hash, eq, nil, cfg)
	if s != nil {
		hb := parallel.LeaseBuf[uint64](s.sc, s.ledger, len(a))
		s.inPlaceRec(a, hb.S, false, 0, 0, hashutil.NewRNG(s.seed))
		hb.Release()
		s.release()
	}
}

// SortLessInPlace is semisort< with the same space bound (unstable; base
// cases use an in-place comparison sort).
func SortLessInPlace[R, K any](a []R, key func(R) K, hash func(K) uint64, less func(K, K) bool, cfg Config) {
	eq := func(x, y K) bool { return !less(x, y) && !less(y, x) }
	s := newSorter(a, key, hash, eq, less, cfg)
	if s != nil {
		hb := parallel.LeaseBuf[uint64](s.sc, s.ledger, len(a))
		s.inPlaceRec(a, hb.S, false, 0, 0, hashutil.NewRNG(s.seed))
		hb.Release()
		s.release()
	}
}

// inPlaceRec is one level of the in-place variant: hs shadows a and is
// permuted through exactly the same swaps, so every level (and the base
// case) reads cached hashes instead of re-running the user closures.
// hashed and bitDepth follow the same contract as rec: the top level fills
// the hash plane inside its counting sweep, and bitDepth tracks consumed
// hash windows.
func (s *sorter[R, K]) inPlaceRec(a []R, hs []uint64, hashed bool, depth, bitDepth int, rng hashutil.RNG) {
	n := len(a)
	if n <= 1 {
		return
	}
	if n <= s.alpha || depth >= s.maxDepth {
		if !hashed && s.less == nil {
			s.HashAll(a, hs)
		}
		if s.sink == nil {
			s.baseInPlace(a, hs)
			return
		}
		t0 := time.Now()
		s.baseInPlace(a, hs)
		s.sink.Leaf(n, time.Since(t0).Nanoseconds())
		return
	}

	// Step 1: Sampling and Bucketing, exactly as in Algorithm 1 (the
	// in-place variant declines the skew collapse: it would not shrink the
	// O(n_B) counters meaningfully, and the chase already skips no traffic
	// for heavy records).
	lv := s.PlanLevel(a, hs, hashed, false, bitDepth, &rng)
	nB := s.nL + lv.NH
	// Copy for the per-bucket forks: see the matching comment in rec (an
	// addressed rng captured by the bucket closure would be heap-boxed at
	// every inPlaceRec entry).
	frng := rng

	// Step 2': one fused classify pass fills the id plane and the exact
	// bucket histogram (parallel over chunks), then an in-place
	// cycle-chasing permutation carries each record's hash and cached id
	// with it. Extra space is the O(n_B) counters plus the 2-byte plane.
	var t0 time.Time
	if s.sink != nil {
		t0 = time.Now()
	}
	idsBuf := parallel.GetBuf[uint16](s.sc, n)
	countsBuf := parallel.GetBuf[int32](s.sc, nB)
	ids, counts := idsBuf.S, countsBuf.S
	s.countBuckets(a, hs, ids, counts, &lv, hashed, bitDepth)
	lv.ReleaseSample()
	lv.ReleaseTable(s.sc)
	startsBuf := parallel.GetBuf[int](s.sc, nB+1)
	headsBuf := parallel.GetBuf[int](s.sc, nB)
	starts, heads := startsBuf.S, headsBuf.S
	sum := 0
	for b := 0; b < nB; b++ {
		starts[b] = sum
		heads[b] = sum
		sum += int(counts[b])
	}
	starts[nB] = sum
	countsBuf.Release()
	// The chase is one serial O(n) pass with no natural chunk boundary, so
	// it carries its own amortized cancellation checkpoint: one context
	// check per 2^16 placements (a cycle places one record per hop, so the
	// counter advances even inside one giant cycle). The mid-walk check
	// must not raise while a record is in hand — at that point a[i]'s
	// value is duplicated at its placed position and the displaced record
	// exists only in v — so it writes v back into a[i] first, which
	// restores a permutation, and only then panics; a cancelled call thus
	// keeps the documented "valid but unspecified permutation" contract.
	placed := 0
	for b := 0; b < nB; b++ {
		end := starts[b+1]
		for heads[b] < end {
			if placed >= SerialCutoff {
				placed = 0
				s.CheckCancel()
			}
			i := heads[b]
			if int(ids[i]) == b {
				heads[b]++
				placed++
				continue
			}
			v, hv, vid := a[i], hs[i], ids[i]
			for int(vid) != b {
				j := heads[vid]
				heads[vid]++
				a[j], v = v, a[j]
				hs[j], hv = hv, hs[j]
				ids[j], vid = vid, ids[j]
				placed++
				if placed >= SerialCutoff {
					placed = 0
					if s.ctx != nil && s.ctx.Err() != nil {
						a[i], hs[i], ids[i] = v, hv, vid
						s.CheckCancel()
					}
				}
			}
			a[i], hs[i], ids[i] = v, hv, vid
			heads[b]++
			placed++
		}
	}
	headsBuf.Release()
	idsBuf.Release()
	if s.sink != nil {
		// The cycle chase moves every record once, carrying its 8-byte hash
		// and 2-byte id with it (scattered = n; nothing is absorbed).
		s.sink.Sweep(int64(n), 0, dist.SweepBytes(s.recBytes+2, int64(n), int64(n)),
			time.Since(t0).Nanoseconds())
	}

	// Step 3: heavy buckets are final; recurse on light buckets in place.
	s.ForBuckets(lv.Serial, s.nL, func(j int) {
		lo, hi := starts[j], starts[j+1]
		if hi-lo > 1 {
			s.inPlaceRec(a[lo:hi], hs[lo:hi], true, depth+1, bitDepth+1, frng.Fork(uint64(j)))
		}
	})
	startsBuf.Release()
}

// countBuckets runs the level's classify pass over the whole input: ids
// receives the 2-byte bucket id plane, counts the exact histogram. Large
// inputs classify in parallel with per-participant counter rows (the
// ForRangeW slot API), merged by commutative addition so the result is
// deterministic.
func (s *sorter[R, K]) countBuckets(a []R, hs []uint64, ids []uint16, counts []int32,
	lv *Level[K], hashed bool, bitDepth int) {
	n, nB := len(a), len(counts)
	ht, sampled := lv.ht, lv.sampled
	clear(counts)
	if n <= SerialCutoff {
		s.classify(a, hs, ids, counts, ht, hashed, false, sampled, 0, n, bitDepth, nil)
		return
	}
	slots := s.rt.MaxSlots()
	part := parallel.GetSlotted[int32](s.sc, slots, nB)
	part.Zero()
	s.rt.ForRangeW(n, 1<<14, func(w, lo, hi int) {
		s.classify(a, hs, ids[lo:hi], part.Lane(w), ht, hashed, false, sampled, lo, hi, bitDepth, nil)
	})
	for w := 0; w < slots; w++ {
		row := part.Lane(w)
		for b := range counts {
			counts[b] += row[b]
		}
	}
	part.Release()
}

// baseInPlace finishes one bucket within the input array. semisort< sorts
// in place; semisort= groups through a pooled scratch buffer of at most
// alpha records, landing the result back in a.
func (s *sorter[R, K]) baseInPlace(a []R, hs []uint64) {
	if s.less != nil {
		seqsort.Quick3(a, func(x, y R) bool { return s.less(s.key(x), s.key(y)) })
		return
	}
	buf := parallel.GetBuf[R](s.sc, len(a))
	s.groupEq(a, hs, buf.S, false)
	buf.Release()
}
