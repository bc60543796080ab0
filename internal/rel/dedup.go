package rel

import (
	"repro/internal/core"
	"repro/internal/dist"
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
	if len(a) == 0 {
		return nil, nil
	}
	d := core.NewDriver(len(a), key, hash, eq, cfg)
	sc := d.Scratch()
	s := parallel.GetObj[deduper[R, K]](sc)
	s.d, s.emit = d, emit
	out, hout := core.Pack(d.Runtime(), sc, core.Absorb(d, a, in, s), emit)
	*s = deduper[R, K]{} // drop the driver before pooling
	parallel.PutObj(sc, s)
	d.Release()
	return out, hout
}

// deduper is the dedup terminal op over the shared distribution driver,
// which holds the user closures. Pooled per call. emit marks
// plane-emitting calls (every output chunk travels with aligned hashes).
type deduper[R, K any] struct {
	d    *core.Driver[R, K]
	emit bool
}

// Heavy takes the level's first-occurrence matrix: its sink keeps the first
// index per (subarray, heavy key), so every later duplicate is dropped in
// the classify sweep, never counted and never scattered.
func (s *deduper[R, K]) Heavy(lv *core.Level[K], cur []R) (dist.FirstKeep, func(sub, hid, j int)) {
	fk := dist.GetFirstKeep(s.d.Runtime(), lv.NSub, lv.NH)
	return fk, fk.Keep
}

// Emit reads each heavy key's first occurrence in place from cur (heavy
// records were never moved). Stable distribution keeps cur in relative
// input order at every level, so the subarray-order first is the global
// first occurrence of the key. Plane-emitting calls read the hashes from
// the heavy table, the only place a top-level heavy hash exists (classify
// never writes heavy hashes into the plane).
func (s *deduper[R, K]) Emit(lv *core.Level[K], cur []R, fk dist.FirstKeep) (*parallel.Buf[R], *parallel.Buf[uint64]) {
	sc := s.d.Scratch()
	own := parallel.GetBuf[R](sc, lv.NH)
	for h := range own.S {
		own.S[h] = cur[fk.First(h)]
	}
	fk.Release()
	if !s.emit {
		return own, nil
	}
	hown := parallel.GetBuf[uint64](sc, lv.NH)
	for h := range hown.S {
		hown.S[h] = lv.HeavyHash(h)
	}
	return own, hown
}

// Leaf deduplicates one cache-resident bucket from the driver's grouping
// pass over its cached hashes: each group's first record, in
// first-appearance (= input) order. Plane-emitting calls record each kept
// record's cached hash alongside.
func (s *deduper[R, K]) Leaf(cur []R, hcur []uint64) (*parallel.Buf[R], *parallel.Buf[uint64]) {
	sc := s.d.Scratch()
	g := s.d.GroupLeaf(cur, hcur)
	own := parallel.GetBuf[R](sc, len(cur))
	own.S = own.S[:g.N]
	for x, f := range g.First {
		own.S[x] = cur[f]
	}
	var hown *parallel.Buf[uint64]
	if s.emit {
		hown = parallel.GetBuf[uint64](sc, len(cur))
		hown.S = hown.S[:g.N]
		for x, f := range g.First {
			hown.S[x] = hcur[f]
		}
	}
	g.Release(sc)
	return own, hown
}
