package rel

import (
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/parallel"
)

// Dedup returns one record per distinct key of a: the key's first record in
// input order (first-occurrence stability — the kept record's payload is the
// earliest one, which is what makes dedup meaningful for records wider than
// their key). The output order is deterministic for a fixed seed but
// unspecified (each recursion level's heavy keys first, then light buckets
// by bucket id). a is not modified.
//
// Dedup is a terminal op on the semisort distribution driver: the user hash
// runs exactly once per record per call, and every record of a heavy key is
// consumed during the fused classify sweep — dist.FirstKeep keeps the first
// occurrence, duplicates beyond it are marked Absorbed and never counted or
// scattered — so under skew the work tracks the distinct-key count, not the
// duplicate mass, with no post-pass over the input.
func Dedup[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []R {
	out, _ := DedupPlane(a, nil, false, key, hash, eq, cfg)
	return out
}

// DedupPlane is Dedup fused into a pipeline. in, when non-nil, supplies the
// input's plane: cached hashes make the top level start hashed (the user
// hash closure is never called), and carried heavy keys are adopted as the
// level-0 heavy table (no sampling round). When emit is set the call also
// returns the output's hash plane in an arena buffer — hout.S[i] is
// out[i]'s user hash, heavy firsts read from the heavy table's OrderHash —
// so downstream stages never re-hash. hout is nil when emit is false or the
// input is empty; the caller releases it.
func DedupPlane[R, K any](a []R, in *core.Plane[K], emit bool,
	key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) ([]R, *parallel.Buf[uint64]) {
	n := len(a)
	if n == 0 {
		return nil, nil
	}
	d := core.NewDriver(n, key, hash, eq, cfg)
	sc := d.Scratch()
	s := parallel.GetObj[deduper[R, K]](sc)
	s.key, s.eq, s.d = key, d.Eq(), d
	s.emit = emit

	// No working copy: the absorbing distribution never writes its source,
	// so the top level reads a directly; only the hash plane mirrors it —
	// and an input plane IS that mirror, so the arena lease is skipped too.
	hcur, hashed := planeIn(in, d, sc, n)
	root := s.rec(a, hcur.S, hashed, 0, 0, hashutil.NewRNG(d.Seed()))
	out, hout := pack(d.Runtime(), sc, root, emit)
	hcur.Release()

	*s = deduper[R, K]{} // drop the user closures before pooling
	parallel.PutObj(sc, s)
	d.Release()
	return out, hout
}

// planeIn resolves a single-input op's top-level hash plane: an input plane
// with cached hashes is consumed directly (hashed=true, no arena lease, and
// any carried heavy keys are adopted by the driver); otherwise a fresh
// arena plane is leased for the fused top level to fill lazily. The
// returned handle's Release is a no-op for the borrowed case.
func planeIn[R, K any](in *core.Plane[K], d *core.Driver[R, K], sc *parallel.Scratch, n int) (borrowedBuf[uint64], bool) {
	if in != nil {
		if in.HeavyKeys != nil {
			d.Adopt(in.HeavyKeys, in.HeavyHashes)
		}
		if in.Hashes != nil {
			return borrowedBuf[uint64]{S: in.Hashes}, true
		}
	}
	// Ledger-tracked: the O(n) hash mirror is the call's biggest lease, and
	// on a fault it must be discarded, not re-pooled (see parallel.Ledger).
	b := parallel.LeaseBuf[uint64](sc, d.Ledger(), n)
	return borrowedBuf[uint64]{S: b.S, owned: b}, false
}

// borrowedBuf is a slice that is either borrowed (an input plane's hashes;
// Release is a no-op) or arena-leased for this call (Release returns it).
type borrowedBuf[T any] struct {
	S     []T
	owned *parallel.Buf[T]
}

// Release returns the underlying lease, if this call took one.
func (b borrowedBuf[T]) Release() {
	if b.owned != nil {
		b.owned.Release()
	}
}

// deduper is the dedup terminal op: the user closures plus the shared
// distribution driver. Pooled per call. emit marks plane-emitting calls
// (every node's own chunk travels with aligned hashes).
type deduper[R, K any] struct {
	key  func(R) K
	eq   func(K, K) bool
	d    *core.Driver[R, K]
	emit bool
}

// rec is one level: plan (sampling + collapse), distribute the lights while
// keeping only each heavy key's first occurrence, recurse on light buckets.
// cur/hcur are read-only here; hashed reports whether hcur already holds
// every record's user hash (false only at the top level).
func (s *deduper[R, K]) rec(cur []R, hcur []uint64, hashed bool, depth, bitDepth int, rng hashutil.RNG) *node[R] {
	n := len(cur)
	if n == 0 {
		return nil
	}
	sc := s.d.Scratch()
	if n <= s.d.Alpha() || depth >= s.d.MaxDepth() {
		if !hashed {
			s.d.HashAll(cur, hcur) // the keep-first table consumes the plane
		}
		return s.base(cur, hcur)
	}

	lv := s.d.PlanLevel(cur, hcur, hashed, true, bitDepth, &rng)
	// Copy for the per-bucket forks: an addressed rng captured by the
	// refining closure would be heap-boxed at every rec entry.
	frng := rng
	nH := lv.NH

	// Blocked Distributing through the absorbing id-plane engines: every
	// heavy record is consumed by the first-occurrence sink during the one
	// fused classify sweep; surviving lights land in light[0:starts[NLight]]
	// with their cached hashes carried, in buffers taken from the arena at
	// the exact survivor count.
	var lightBuf *parallel.Buf[R]
	var hlightBuf *parallel.Buf[uint64]
	dest := func(kept int) ([]R, []uint64) {
		lightBuf = parallel.GetBuf[R](sc, kept)
		hlightBuf = parallel.GetBuf[uint64](sc, kept)
		return lightBuf.S, hlightBuf.S
	}
	startsBuf := parallel.GetBuf[int](sc, lv.NLight+1)
	var fk dist.FirstKeep
	var starts []int
	if nH > 0 {
		fk = dist.GetFirstKeep(s.d.Runtime(), lv.NSub, nH)
		starts = s.d.AbsorbLevelFirst(&lv, cur, hcur, hashed, bitDepth, startsBuf.S, fk, dest)
	} else {
		starts = s.d.AbsorbLevel(&lv, cur, hcur, hashed, bitDepth, startsBuf.S, nil, dest)
	}
	lv.ReleaseSample()

	nd := newNode[R](sc)
	// Each heavy key contributes exactly its first occurrence, read in place
	// from cur (heavy records were never moved). Stable distribution keeps
	// cur in relative input order at every level, so the subarray-order
	// first is the global first occurrence of the key.
	if nH > 0 {
		own := parallel.GetBuf[R](sc, nH)
		for h := 0; h < nH; h++ {
			own.S[h] = cur[fk.First(h)]
		}
		nd.own = own
		if s.emit {
			// The heavy table is the only place a top-level heavy hash
			// exists (classify never writes heavy hashes into the plane).
			hown := parallel.GetBuf[uint64](sc, nH)
			for h := 0; h < nH; h++ {
				hown.S[h] = lv.HeavyHash(h)
			}
			nd.hown = hown
		}
		fk.Release()
	}
	lv.ReleaseTable(sc)

	// Local Refining on the surviving light buckets. The survivor buffers
	// stay alive until the whole subtree is deduplicated, then pool back.
	nd.kids = parallel.GetBuf[*node[R]](sc, lv.NLight)
	nd.kids.Zero()
	kids := nd.kids.S
	light, hlight := lightBuf.S, hlightBuf.S
	s.d.ForBuckets(lv.Serial, lv.NLight, func(j int) {
		lo, hi := starts[j], starts[j+1]
		if lo < hi {
			kids[j] = s.rec(light[lo:hi], hlight[lo:hi], true, depth+1, lv.NextBit, frng.Fork(uint64(j)))
		}
	})
	hlightBuf.Release()
	lightBuf.Release()
	startsBuf.Release()
	return nd
}

// base runs baseImpl under the stats plane's leaf accounting
// (branch-on-nil when stats are disabled).
func (s *deduper[R, K]) base(cur []R, hcur []uint64) *node[R] {
	if !s.d.StatsArmed() {
		return s.baseImpl(cur, hcur)
	}
	t0 := time.Now()
	nd := s.baseImpl(cur, hcur)
	s.d.StatLeaf(len(cur), time.Since(t0).Nanoseconds())
	return nd
}

// baseImpl deduplicates one cache-resident bucket sequentially with a
// keep-first hash table consuming the cached hash plane; kept records are
// emitted into a pooled chunk in first-appearance (= input) order.
func (s *deduper[R, K]) baseImpl(cur []R, hcur []uint64) *node[R] {
	n := len(cur)
	sc := s.d.Scratch()
	t := core.GetLeafTable(sc, n)
	slots, hashes, mask := t.Slots, t.Hashes, t.Mask
	own := parallel.GetBuf[R](sc, n)
	out := own.S[:0]
	// Plane-emitting calls record each kept record's cached hash alongside
	// (appends stay within the n-record lease, so hout never reallocates).
	var hown *parallel.Buf[uint64]
	var hout []uint64
	if s.emit {
		hown = parallel.GetBuf[uint64](sc, n)
		hout = hown.S[:0]
	}
	for idx := 0; idx < n; idx++ {
		h := hcur[idx]
		i := t.Home(h)
		for {
			si := slots[i]
			if si < 0 {
				t.Claim(i, int32(len(out)), h)
				out = append(out, cur[idx])
				if s.emit {
					hout = append(hout, h)
				}
				break
			}
			if hashes[i] == h && s.eq(s.key(out[si]), s.key(cur[idx])) {
				break // duplicate: the first occurrence is already kept
			}
			i = (i + 1) & mask
		}
	}
	t.Release(sc)
	own.S = out
	nd := newNode[R](sc)
	nd.own = own
	if s.emit {
		hown.S = hout
		nd.hown = hown
	}
	return nd
}
