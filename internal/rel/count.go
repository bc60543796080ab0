package rel

import (
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/parallel"
)

// CountDistinct returns the number of distinct keys of a. It is the
// count-only corner of the driver family: a level contributes one distinct
// key per heavy key its sample promoted (all of that key's records are
// absorbed by a payload-free sink — never counted, never scattered, and
// nothing at all is accumulated for them), light buckets recurse through
// survivor-sized buffers, and leaves count hash-table insertions without
// materializing any output. The user hash runs exactly once per record per
// call; a is not modified.
func CountDistinct[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) int64 {
	return CountDistinctPlane(a, nil, key, hash, eq, cfg)
}

// CountDistinctPlane is CountDistinct fused into a pipeline: a non-nil
// input plane supplies cached hashes (the top level starts hashed; the user
// hash closure is never called) and carried heavy keys for level-0 adoption
// (no sampling round).
func CountDistinctPlane[R, K any](a []R, in *core.Plane[K],
	key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) int64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	d := core.NewDriver(n, key, hash, eq, cfg)
	sc := d.Scratch()
	s := parallel.GetObj[counter[R, K]](sc)
	s.key, s.eq, s.d = key, d.Eq(), d
	hcur, hashed := planeIn(in, d, sc, n)
	total := s.rec(a, hcur.S, hashed, 0, 0, hashutil.NewRNG(d.Seed()))
	hcur.Release()
	*s = counter[R, K]{}
	parallel.PutObj(sc, s)
	d.Release()
	return total
}

// counter is the distinct-count terminal op. Pooled per call.
type counter[R, K any] struct {
	key func(R) K
	eq  func(K, K) bool
	d   *core.Driver[R, K]
}

// dropHeavy is the payload-free absorb sink: a heavy record is final the
// moment it is classified — its key is already accounted for by the level's
// heavy-key count — so absorbing it requires no work at all.
func dropHeavy(sub, hid, j int) {}

// rec is one level: each promoted heavy key is one distinct key (its records
// all absorb at this level, so no deeper level ever sees the key again);
// light buckets partition the remaining keys exactly, so their counts add.
func (s *counter[R, K]) rec(cur []R, hcur []uint64, hashed bool, depth, bitDepth int, rng hashutil.RNG) int64 {
	n := len(cur)
	if n == 0 {
		return 0
	}
	sc := s.d.Scratch()
	if n <= s.d.Alpha() || depth >= s.d.MaxDepth() {
		if !hashed {
			s.d.HashAll(cur, hcur)
		}
		return s.base(cur, hcur)
	}

	lv := s.d.PlanLevel(cur, hcur, hashed, true, bitDepth, &rng)
	frng := rng
	var lightBuf *parallel.Buf[R]
	var hlightBuf *parallel.Buf[uint64]
	dest := func(kept int) ([]R, []uint64) {
		lightBuf = parallel.GetBuf[R](sc, kept)
		hlightBuf = parallel.GetBuf[uint64](sc, kept)
		return lightBuf.S, hlightBuf.S
	}
	startsBuf := parallel.GetBuf[int](sc, lv.NLight+1)
	var sink func(sub, hid, j int)
	if lv.NH > 0 {
		sink = dropHeavy
	}
	starts := s.d.AbsorbLevel(&lv, cur, hcur, hashed, bitDepth, startsBuf.S, sink, dest)
	lv.ReleaseSample()
	lv.ReleaseTable(sc)

	total := int64(lv.NH)
	countsBuf := parallel.GetBuf[int64](sc, lv.NLight)
	counts := countsBuf.S
	light, hlight := lightBuf.S, hlightBuf.S
	s.d.ForBuckets(lv.Serial, lv.NLight, func(j int) {
		counts[j] = 0
		lo, hi := starts[j], starts[j+1]
		if lo < hi {
			counts[j] = s.rec(light[lo:hi], hlight[lo:hi], true, depth+1, lv.NextBit, frng.Fork(uint64(j)))
		}
	})
	for _, c := range counts {
		total += c
	}
	countsBuf.Release()
	hlightBuf.Release()
	lightBuf.Release()
	startsBuf.Release()
	return total
}

// base runs baseImpl under the stats plane's leaf accounting
// (branch-on-nil when stats are disabled).
func (s *counter[R, K]) base(cur []R, hcur []uint64) int64 {
	if !s.d.StatsArmed() {
		return s.baseImpl(cur, hcur)
	}
	t0 := time.Now()
	out := s.baseImpl(cur, hcur)
	s.d.StatLeaf(len(cur), time.Since(t0).Nanoseconds())
	return out
}

// baseImpl counts the distinct keys of one cache-resident bucket
// sequentially, consuming the cached hash plane. Slots store the first
// record index of their key so equality runs against the original records;
// nothing is emitted.
func (s *counter[R, K]) baseImpl(cur []R, hcur []uint64) int64 {
	n := len(cur)
	sc := s.d.Scratch()
	t := core.GetLeafTable(sc, n)
	slots, hashes, mask := t.Slots, t.Hashes, t.Mask
	distinct := int64(0)
	for idx := 0; idx < n; idx++ {
		h := hcur[idx]
		i := t.Home(h)
		for {
			si := slots[i]
			if si < 0 {
				t.Claim(i, int32(idx), h)
				distinct++
				break
			}
			if hashes[i] == h && s.eq(s.key(cur[si]), s.key(cur[idx])) {
				break
			}
			i = (i + 1) & mask
		}
	}
	t.Release(sc)
	return distinct
}
