package rel

import (
	"sync/atomic"

	"repro/internal/core"
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
	if len(a) == 0 {
		return 0
	}
	d := core.NewDriver(len(a), key, hash, eq, cfg)
	sc := d.Scratch()
	s := parallel.GetObj[counter[R, K]](sc)
	s.d = d
	core.Pack(d.Runtime(), sc, core.Absorb(d, a, in, s), false) // frees the empty tree
	total := s.total.Load()
	*s = counter[R, K]{} // drop the driver and the total before pooling
	parallel.PutObj(sc, s)
	d.Release()
	return total
}

// counter is the distinct-count terminal op over the shared distribution
// driver, which holds the user closures. Pooled per call. Levels and leaves
// run in parallel and add their distinct keys into one total.
type counter[R, K any] struct {
	d     *core.Driver[R, K]
	total atomic.Int64
}

// dropHeavy is the payload-free absorb sink: a heavy record is final the
// moment it is classified — its key is already accounted for by the level's
// heavy-key count — so absorbing it requires no work at all.
func dropHeavy(sub, hid, j int) {}

// Heavy needs no level state: the sink drops every heavy record.
func (s *counter[R, K]) Heavy(*core.Level[K], []R) (struct{}, func(sub, hid, j int)) {
	return struct{}{}, dropHeavy
}

// Emit counts each promoted heavy key once: all its records absorb at this
// level, so no deeper level ever sees the key again, and the light buckets
// partition the remaining keys exactly.
func (s *counter[R, K]) Emit(lv *core.Level[K], _ []R, _ struct{}) (*parallel.Buf[struct{}], *parallel.Buf[uint64]) {
	s.total.Add(int64(lv.NH))
	return nil, nil
}

// Leaf counts the distinct keys of one cache-resident bucket: the group
// count of the driver's grouping pass over its cached hashes. Nothing is
// emitted.
func (s *counter[R, K]) Leaf(cur []R, hcur []uint64) (*parallel.Buf[struct{}], *parallel.Buf[uint64]) {
	g := s.d.GroupLeaf(cur, hcur)
	s.total.Add(int64(g.N))
	g.Release(s.d.Scratch())
	return nil, nil
}
