package core

import (
	"time"

	"repro/internal/hashutil"
	"repro/internal/parallel"
)

// This file is the semisort terminal op on the distribution driver
// (driver.go): the driver plans and distributes each level; the sorter
// decides what a level means for sorting — heavy buckets are final (moved
// to the caller-visible side), light buckets recurse with the A/T role swap
// of Section 3.4 until a base case groups them.

// SortEq is semisort=: it reorders a (in place) so that records with equal
// keys are contiguous, using only a user hash function and an equality test.
// The result is stable and deterministic for a fixed cfg.Seed.
func SortEq[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg Config) {
	s := newSorter(a, key, hash, eq, nil, cfg)
	if s == nil {
		return
	}
	s.run(a)
	s.release()
}

// SortEqHashed is SortEq consuming a pre-computed hash plane (hs[i] =
// hash(key(a[i]))), the pipeline-fusion entry point: the top level starts
// hashed, so the sampling round and the classify sweeps never call the user
// hash closure — zero hash calls for the whole sort. hs is taken over as
// the call's working hash plane (the A/T role swap scribbles on it), so the
// caller must treat it as consumed.
func SortEqHashed[R, K any](a []R, hs []uint64, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg Config) {
	if len(hs) != len(a) {
		panic("semisort: hash plane length does not match input")
	}
	s := newSorter(a, key, hash, eq, nil, cfg)
	if s == nil {
		return
	}
	s.runHashed(a, hs)
	s.release()
}

// SortLess is semisort<: like SortEq but additionally uses a less-than test,
// which lets base cases run a comparison sort (Section 3.3). Equality is
// derived from less. The result is stable and deterministic.
func SortLess[R, K any](a []R, key func(R) K, hash func(K) uint64, less func(K, K) bool, cfg Config) {
	eq := func(x, y K) bool { return !less(x, y) && !less(y, x) }
	s := newSorter(a, key, hash, eq, less, cfg)
	if s == nil {
		return
	}
	s.run(a)
	s.release()
}

// sorter is the semisort terminal op: the shared distribution driver plus
// the sort-only state. Instances are recycled through the runtime's arena,
// so steady-state calls do not allocate one.
type sorter[R, K any] struct {
	Driver[R, K]
	less           func(K, K) bool // nil for semisort=
	disableInPlace bool
}

func newSorter[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, less func(K, K) bool, cfg Config) *sorter[R, K] {
	n := len(a)
	if n <= 1 {
		return nil
	}
	cfg = cfg.WithDefaults()
	rt := parallel.Or(cfg.Runtime)
	s := parallel.GetObj[sorter[R, K]](rt.Scratch())
	s.Driver.init(n, key, hash, eq, cfg, rt)
	s.less = less
	s.disableInPlace = cfg.DisableInPlace
	return s
}

// release returns the sorter to the arena. The closures it captured are
// dropped so pooled sorters do not pin caller state between calls. The
// sorter pools its whole embedding object instead of calling
// Driver.Release, so the stats merge happens here.
func (s *sorter[R, K]) release() {
	s.finishStats()
	sc := s.sc
	*s = sorter[R, K]{}
	parallel.PutObj(sc, s)
}

// run semisorts a in place, taking the single O(n) auxiliary array T of
// Section 3.4 plus the two hash-plane arrays from the arena (input and
// output share a; each record is copied about twice). The hash plane is
// filled lazily by the first level's fused classify sweep, not by a
// dedicated pass.
func (s *sorter[R, K]) run(a []R) {
	// Leased through the call ledger: on a fault these O(n) planes are
	// discarded, on a clean return re-pooled as before (see parallel.Ledger).
	tb := parallel.LeaseBuf[R](s.sc, s.ledger, len(a))
	hb := parallel.LeaseBuf[uint64](s.sc, s.ledger, len(a))
	htb := parallel.LeaseBuf[uint64](s.sc, s.ledger, len(a))
	rng := hashutil.NewRNG(s.seed)
	s.rec(a, tb.S, hb.S, htb.S, true, false, 0, 0, rng)
	htb.Release()
	hb.Release()
	tb.Release()
}

// runHashed is run with the caller-supplied hash plane standing in for the
// lazily filled one: the recursion starts hashed, taking only the auxiliary
// record array and the second hash-plane side from the arena.
func (s *sorter[R, K]) runHashed(a []R, hs []uint64) {
	tb := parallel.LeaseBuf[R](s.sc, s.ledger, len(a))
	htb := parallel.LeaseBuf[uint64](s.sc, s.ledger, len(a))
	rng := hashutil.NewRNG(s.seed)
	s.rec(a, tb.S, hs, htb.S, true, true, 0, 0, rng)
	htb.Release()
	tb.Release()
}

// rec is one level of Algorithm 1. Data currently lives in cur; other is
// equally sized scratch; hcur/hother hold the records' cached user hashes
// and shadow every permutation of cur/other. hashed records whether hcur is
// filled yet (false only at the top level, whose classify sweep computes
// and caches the hashes as it counts). curIsA records which side is the
// caller-visible array A: the in-place optimization of Section 3.4 swaps
// the roles of A and T down the recursion, and results must always
// materialize on the A side of each disjoint bucket range. depth bounds the
// recursion; bitDepth counts the b-bit hash windows consumed so far — a
// collapsed level (all light records into one residue bucket) burns no
// window, so the two can differ.
func (s *sorter[R, K]) rec(cur, other []R, hcur, hother []uint64, curIsA, hashed bool, depth, bitDepth int, rng hashutil.RNG) {
	n := len(cur)
	if n == 0 {
		return
	}
	if n <= s.alpha || depth >= s.maxDepth {
		if !hashed && s.less == nil {
			s.HashAll(cur, hcur) // the semisort= base case consumes the plane
		}
		s.base(cur, other, hcur, curIsA)
		return
	}

	// Step 1: Sampling and Bucketing (on cached hashes when the plane is
	// filled; the top level hashes its sample through the memoizing fused
	// build instead) plus the level-shape decision — see Driver.PlanLevel.
	// The level lives in a pooled object, not a stack local: its address
	// rides into the distribute sweep's worker closures, which would box a
	// fresh Level at every recursion node (a per-node allocation that once
	// made SortEq on exponential keys the outlier of the allocation counts).
	lv := parallel.GetObj[Level[K]](s.sc)
	*lv = s.PlanLevel(cur, hcur, hashed, true, bitDepth, &rng)

	// frng is a copy of the (sampling-advanced) generator for the per-bucket
	// forks below. The copy is deliberate: rng itself has its address taken
	// for the sampling build, and closures capturing an addressed variable
	// box it on the heap at every rec entry — one allocation per recursion
	// node.
	frng := rng

	nLight, nB := lv.NLight, lv.NLight+lv.NH

	// Step 2: Blocked Distributing (cur -> other, hcur -> hother) through
	// the level's id plane: classify fills ids and counts in one fused
	// sweep, the engine prefixes and replays.
	// Leased, not plain: the release below sits in a defer, so it runs
	// mid-unwind on faults. On cancellation the checkpoint aborts the
	// ledger BEFORE unwinding, so the release is suppressed; on a worker
	// panic the defer may run before the root recovery aborts, which is
	// harmless — a prefix array is plain dirty content, exactly what the
	// arena contract permits a pool to hold.
	startsBuf := parallel.LeaseBuf[int](s.sc, s.ledger, nB+1)
	starts := s.DistributeLevel(lv, cur, other, hcur, hother, hashed, bitDepth, startsBuf.S)
	lv.ReleaseSample()
	// The id plane has absorbed every classification; the table's storage
	// feeds the next level's build.
	lv.ReleaseTable(s.sc)
	defer startsBuf.Release()
	// Everything the recursion still needs from the level is scalar; copy
	// it out and recycle the object before the children take their own.
	serial, nextBit, nH := lv.Serial, lv.NextBit, lv.NH
	parallel.PutObj(s.sc, lv)

	if s.disableInPlace {
		// Ablation path: Alg. 1 line 23 verbatim — copy T back to A after
		// every distribution instead of swapping roles down the recursion.
		// The hash array is copied back alongside so deeper levels still
		// see each record's hash.
		parallel.CopyIn(s.rt, cur, other)
		parallel.CopyIn(s.rt, hcur, hother)
		s.ForBuckets(serial, nLight, func(j int) {
			lo, hi := starts[j], starts[j+1]
			if lo < hi {
				s.rec(cur[lo:hi], other[lo:hi], hcur[lo:hi], hother[lo:hi], curIsA, true, depth+1, nextBit, frng.Fork(uint64(j)))
			}
		})
		return
	}

	// Heavy buckets are final after distribution; move them to the A side
	// if they landed in T (the heavy region is contiguous at the end).
	// Their hashes are never read again — the scatter already skipped them
	// (hLive = nLight) — so only records move.
	if nH > 0 && curIsA {
		lo, hi := starts[nLight], starts[nB]
		if serial {
			copy(cur[lo:hi], other[lo:hi])
		} else {
			parallel.CopyIn(s.rt, cur[lo:hi], other[lo:hi])
		}
	}

	// Step 3: Local Refining — recurse on light buckets with roles swapped,
	// consuming the next window of hash bits (see levelBits). A collapsed
	// level recurses on its single residue bucket with the same window. The
	// serial branch loops in place of ForBuckets: a func literal handed to
	// a non-inlined callee is heap-allocated even when it only ever runs on
	// this goroutine, and serial nodes dominate the deep recursion.
	if serial {
		for j := 0; j < nLight; j++ {
			lo, hi := starts[j], starts[j+1]
			if lo < hi {
				s.rec(other[lo:hi], cur[lo:hi], hother[lo:hi], hcur[lo:hi], !curIsA, true, depth+1, nextBit, frng.Fork(uint64(j)))
			}
		}
		return
	}
	s.rt.For(nLight, 1, func(j int) {
		lo, hi := starts[j], starts[j+1]
		if lo < hi {
			s.rec(other[lo:hi], cur[lo:hi], hother[lo:hi], hcur[lo:hi], !curIsA, true, depth+1, nextBit, frng.Fork(uint64(j)))
		}
	})
}

// base solves one bucket sequentially and leaves the result on the A side.
// The clock is read only when the stats plane is armed.
func (s *sorter[R, K]) base(cur, other []R, hcur []uint64, curIsA bool) {
	var t0 time.Time
	if s.sink != nil {
		t0 = time.Now()
	}
	switch {
	case len(cur) <= 1:
		if !curIsA {
			copy(other, cur)
		}
	case s.less != nil:
		// semisort<: stable sort in place, then surface to the A side.
		s.baseLess(cur, other)
		if !curIsA {
			copy(other, cur)
		}
	default:
		// semisort=: one table pass over the cached hashes, landing the
		// grouped result on the A side (see groupEq).
		s.groupEq(cur, hcur, other, !curIsA)
	}
	if s.sink != nil {
		s.sink.Leaf(len(cur), time.Since(t0).Nanoseconds())
	}
}
