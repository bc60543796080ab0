package core

import (
	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Base cases of the Local Refining step (Section 3.3). Both variants
// produce a stable grouping: records with equal keys appear contiguously in
// their original relative order. Base-case scratch lives in the runtime's
// arena, so it is recycled both across the thousands of light buckets of
// one call and across repeated calls sharing a runtime.
//
// The semisort= base case is built on the hash-once pipeline: the bucket
// arrives with every record's cached 64-bit user hash, so instead of the
// paper's chained hash table (one random cache-missing probe per record
// into a table of 2n slots) it keeps splitting by fresh windows of the
// cached hash — serial, stable, streaming counting sorts via
// dist.SerialFilledInto with a byte-wide id plane, which covers the 256-way
// splits — until groups are tiny, then groups each leaf with a linear
// representative scan gated by full-hash equality. The user closures are
// untouched on collision-free inputs: hashes come from the cache, and eq
// (with its key extractions) runs only when two full 64-bit hashes agree.

// eqSplitBits caps how many cached-hash bits one base-case split consumes
// (256-way: exactly what the byte-wide id plane of dist.SerialFilledInto
// holds). Small buckets consume fewer bits so the per-split fixed costs
// (counters, prefix, leaf dispatch) stay proportional to the bucket.
const eqSplitBits = 8

// eqTinyCutoff is the group size below which splitting stops and the leaf
// grouper runs. Leaves this small are L1-resident.
const eqTinyCutoff = 48

// eqSplitWidth returns how many hash bits to consume splitting an n-record
// group: enough for leaves of about eqTinyCutoff/2 records, at most
// eqSplitBits.
func eqSplitWidth(n int) uint {
	bits := uint(ceilLog2(n/(eqTinyCutoff/2) + 1))
	if bits > eqSplitBits {
		return eqSplitBits
	}
	if bits < 2 {
		return 2
	}
	return bits
}

// eqScratch holds the reusable arrays of the semisort= leaf grouper: per
// distinct key a representative (full hash, first index, lazily extracted
// key), per record its distinct-key index. Pooled via the arena; cached key
// values are cleared before pooling so the arena does not pin caller state
// beyond the records themselves.
type eqScratch[K any] struct {
	repH    []uint64
	repIdx  []int32
	counts  []int32
	recDist []int32
	keys    []K
	haveKey []bool
}

func (s *eqScratch[K]) grow(n int) {
	if len(s.recDist) < n {
		s.repH = make([]uint64, n)
		s.repIdx = make([]int32, n)
		s.counts = make([]int32, n)
		s.recDist = make([]int32, n)
		s.keys = make([]K, n)
		s.haveKey = make([]bool, n)
	}
}

// baseBits returns the bits-wide window of h at bit position bitpos,
// remixing with the position as salt once the 64 hash bits are exhausted
// (mirroring levelBits in the recursion above).
func baseBits(h uint64, bitpos, bits uint) int {
	if bitpos+bits <= 64 {
		return int((h >> bitpos) & (1<<bits - 1))
	}
	return int(hashutil.Seeded(h, uint64(bitpos)) & (1<<bits - 1))
}

// groupEq stably groups the records of a by key equality. b (same length,
// non-aliasing) is scratch; ha/hb shadow a/b with the cached user hashes;
// scr is the leaf grouper's scratch, acquired once per base call so the
// hundreds of leaves under one bucket share a single arena round-trip.
// The grouped result lands in b when intoB is true, in a otherwise.
func (s *sorter[R, K]) groupEq(a []R, ha []uint64, b []R, hb []uint64, bitpos uint, intoB bool, scr *eqScratch[K]) {
	n := len(a)
	// bitpos grows every level; past 64+64 every window has been remixed
	// once — if the input still has not split, the hashes are (nearly)
	// constant and further splitting cannot help.
	if n <= eqTinyCutoff || bitpos > 128 {
		s.tinyGroupEq(a, ha, b, intoB, scr)
		return
	}

	bits := eqSplitWidth(n)
	nBk := 1 << bits
	startsBuf := parallel.GetBuf[int](s.sc, nBk+1)
	// Byte-wide id-plane split: the fill loop classifies every record in
	// one closure-free pass (baseBits inlines), the engine replays.
	starts := dist.SerialFilledInto(s.sc, a, b, ha, hb, nBk, nBk,
		func(ids []uint8, counts []int32) {
			ids = ids[:len(ha)]
			for i := range ha {
				id := uint8(baseBits(ha[i], bitpos, bits))
				ids[i] = id
				counts[id]++
			}
		}, startsBuf.S)

	// Adversarial guard: if every record shares one window value (constant
	// or degenerate user hash), splitting made no progress; group the leaf
	// directly (a is untouched by the scatter).
	for j := 0; j < nBk; j++ {
		if starts[j+1]-starts[j] == n {
			startsBuf.Release()
			s.tinyGroupEq(a, ha, b, intoB, scr)
			return
		}
	}
	for j := 0; j < nBk; j++ {
		lo, hi := starts[j], starts[j+1]
		if lo < hi {
			s.groupEq(b[lo:hi], hb[lo:hi], a[lo:hi], ha[lo:hi], bitpos+bits, !intoB, scr)
		}
	}
	startsBuf.Release()
}

// tinyGroupEq is the leaf grouper: a linear scan over the distinct-key
// representatives seen so far, comparing full cached hashes first so the
// (indirect) eq call and its key extractions run only on true duplicates
// and genuine 64-bit hash collisions. Stable: distinct keys are emitted in
// first-appearance order, records within a key in input order. The result
// lands in b when intoB is true, in a otherwise (b is scratch then).
func (s *sorter[R, K]) tinyGroupEq(a []R, ha []uint64, b []R, intoB bool, scr *eqScratch[K]) {
	n := len(a)
	if n == 0 {
		return
	}
	if s.sink != nil {
		// The leaf-mix counter: how many of the base case's sub-problems
		// bottomed out in the linear-scan grouper (vs. being split further).
		s.sink.AddLocal(obs.CtrLeafTiny, 1)
	}
	scr.grow(n)
	nd := int32(0)
	for i := 0; i < n; i++ {
		h := ha[i]
		var k K
		haveK := false
		d := int32(0)
		for ; d < nd; d++ {
			if scr.repH[d] != h {
				continue
			}
			if !haveK {
				k = s.key(a[i])
				haveK = true
			}
			if !scr.haveKey[d] {
				scr.keys[d] = s.key(a[scr.repIdx[d]])
				scr.haveKey[d] = true
			}
			if s.eq(scr.keys[d], k) {
				break
			}
		}
		if d == nd {
			scr.repH[nd] = h
			scr.repIdx[nd] = int32(i)
			scr.haveKey[nd] = false
			scr.counts[nd] = 0
			nd++
		}
		scr.recDist[i] = d
		scr.counts[d]++
	}
	off := int32(0)
	for d := int32(0); d < nd; d++ {
		c := scr.counts[d]
		scr.counts[d] = off
		off += c
	}
	for i := 0; i < n; i++ {
		d := scr.recDist[i]
		b[scr.counts[d]] = a[i]
		scr.counts[d]++
	}
	if !intoB {
		copy(a, b[:n])
	}
	clear(scr.keys[:nd])
}

// baseLess is the semisort< base case: a sequential stable merge sort on
// keys using tmp as scratch. Sorting groups equal keys contiguously and the
// merge prefers the left run on ties, preserving input order.
func (s *sorter[R, K]) baseLess(cur, tmp []R) {
	s.mergeSort(cur, tmp[:len(cur)])
}

// insertionCutoff is the run length below which insertion sort is used.
const insertionCutoff = 24

func (s *sorter[R, K]) mergeSort(a, tmp []R) {
	n := len(a)
	if n <= insertionCutoff {
		s.insertionSort(a)
		return
	}
	m := n / 2
	s.mergeSort(a[:m], tmp[:m])
	s.mergeSort(a[m:], tmp[m:])
	if !s.less(s.key(a[m]), s.key(a[m-1])) {
		return // already in order across the split
	}
	copy(tmp, a)
	s.merge(tmp[:m], tmp[m:], a)
}

func (s *sorter[R, K]) merge(left, right, out []R) {
	i, j, w := 0, 0, 0
	for i < len(left) && j < len(right) {
		if s.less(s.key(right[j]), s.key(left[i])) {
			out[w] = right[j]
			j++
		} else {
			out[w] = left[i]
			i++
		}
		w++
	}
	for i < len(left) {
		out[w] = left[i]
		i++
		w++
	}
	for j < len(right) {
		out[w] = right[j]
		j++
		w++
	}
}

func (s *sorter[R, K]) insertionSort(a []R) {
	for i := 1; i < len(a); i++ {
		r := a[i]
		k := s.key(r)
		j := i - 1
		for j >= 0 && s.less(k, s.key(a[j])) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = r
	}
}
