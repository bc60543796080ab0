package core

import "repro/internal/parallel"

// Plane is the pipeline-fusion handoff: what a finished terminal op already
// knows about its output, carried into the next op so a chain of ops hashes
// and partitions once per pipeline instead of once per op.
//
//   - Hashes, when non-nil, holds every output record's user hash (aligned
//     with the record slice). A consumer starts its top level with
//     hashed=true: no sampling-round hashing, no classify-sweep hashing —
//     the user hash closure is never called again for these records.
//   - HeavyKeys/HeavyHashes carry the producer's level-0 heavy keys. A
//     consumer adopts them as its own level-0 heavy table (Driver.adopt):
//     PlanLevel then skips the sampling round entirely, because keys that
//     were frequent in the producer's input are the only candidates for
//     being frequent in its output. Every carried key occurs in the
//     output: an absorbing consumer emits one result per adopted key (the
//     key's first record, its count), so a key without records has none to
//     emit. The join therefore carries only the keys with rows on both
//     sides. Meaningless after Dedup (every key is a singleton), so
//     distinct-output producers leave them nil.
//   - Grouped reports that equal-key records are contiguous, with Bounds
//     holding the g+1 group boundaries (group i is records
//     [Bounds[i], Bounds[i+1])). Grouped consumers skip the driver outright:
//     the groups ARE the finished partition (dedup takes each group's head,
//     histogram each group's length, a join matches groups).
//   - Distinct reports that every key occurs exactly once (Dedup output):
//     dedup becomes a no-op, count-distinct a length, a histogram all-ones.
//
// Hashes and Bounds live in arena buffers (HBuf/BBuf) when the producer
// leased them; Release returns those to the arena. The records themselves
// are never owned by a Plane.
type Plane[K any] struct {
	Hashes []uint64
	HBuf   *parallel.Buf[uint64]

	Grouped bool
	Bounds  []int32
	BBuf    *parallel.Buf[int32]

	Distinct bool

	HeavyKeys   []K
	HeavyHashes []uint64
}

// Release returns the plane's leased buffers to the arena and clears it.
func (p *Plane[K]) Release() {
	if p == nil {
		return
	}
	if p.HBuf != nil {
		p.HBuf.Release()
	}
	if p.BBuf != nil {
		p.BBuf.Release()
	}
	*p = Plane[K]{}
}
