package core

import (
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/sampling"
)

// Base cases of the Local Refining step (Section 3.3). Both variants
// produce a stable grouping: records with equal keys appear contiguously in
// their original relative order. Base-case scratch lives in the runtime's
// arena, so it is recycled both across the thousands of light buckets of
// one call and across repeated calls sharing a runtime.
//
// The semisort= base case is the paper's hash table, built on the hash-once
// pipeline: the bucket arrives with every record's cached 64-bit user hash,
// so one pass probes each cached hash into an open-addressing LeafTable and
// assigns dense group ids in first-appearance order, and one stable scatter
// by group id lands the grouped bucket. The user closures are untouched on
// collision-free inputs: hashes come from the cache, and eq (with its key
// extractions) runs only when two full 64-bit hashes agree.

// LeafTable is the open-addressing hash table of every hash-table base
// case: the sorter's grouper, collect's combine table, dedup's keep-first
// table, distinct counting, the grouped join's group match and the join
// leaves' chained build. Each slot holds an op-defined int32 payload (-1
// when empty) beside the entry's full cached hash, so a probe runs eq (and
// its key extraction) only when two full 64-bit hashes agree. The probe
// loops live in the ops; the table owns sizing and reset. Outside the
// MaxDepth fallback a leaf holds at most alpha records, so its table has at
// most 2·alpha slots and stays cache-resident.
type LeafTable struct {
	Slots  []int32
	Hashes []uint64
	Mask   uint64 // live slot count - 1
	shift  uint
	used   []uint64 // claimed slots, for the O(used) reset
}

// GetLeafTable takes an empty table for n entries from the arena (see
// size); Release returns it.
func GetLeafTable(sc *parallel.Scratch, n int) *LeafTable {
	t := parallel.GetObj[LeafTable](sc)
	t.size(n)
	return t
}

// Release empties the claimed slots and returns t to the arena.
func (t *LeafTable) Release(sc *parallel.Scratch) {
	t.reset()
	parallel.PutObj(sc, t)
}

// size shapes the table for n entries: CeilPow2(2n) live slots (load at
// most 1/2). Pooled arrays only grow, and unused slots stay empty.
func (t *LeafTable) size(n int) {
	m := sampling.CeilPow2(2 * n)
	if len(t.Slots) < m {
		t.Slots = make([]int32, m)
		for i := range t.Slots {
			t.Slots[i] = -1
		}
		t.Hashes = make([]uint64, m)
	}
	t.Mask, t.shift = uint64(m-1), hashutil.SlotShift(m)
}

// Home is the first slot a probe for h visits. It comes from hashutil.Slot:
// the recursion consumed low hash windows as bucket ids, so a leaf's
// records share their low bits and a low-bits index would collapse the
// table into a few linear clusters.
func (t *LeafTable) Home(h uint64) uint64 { return hashutil.Slot(h, t.shift) }

// Claim fills the empty slot i with payload v and full hash h.
func (t *LeafTable) Claim(i uint64, v int32, h uint64) {
	t.Slots[i], t.Hashes[i] = v, h
	t.used = append(t.used, i)
}

// reset empties the claimed slots.
func (t *LeafTable) reset() {
	for _, i := range t.used {
		t.Slots[i] = -1
	}
	t.used = t.used[:0]
}

// groupScratch is the semisort= base case's pooled scratch: the table
// (slot payload: group id), per group its representative record, its lazily
// extracted key and its record count, and per record its group id. Cached
// keys are cleared before pooling so the arena does not pin caller state
// beyond the records themselves.
type groupScratch[K any] struct {
	tbl     LeafTable
	rep     []int32
	counts  []int32
	gid     []int32
	keys    []K
	haveKey []bool
}

func (g *groupScratch[K]) grow(n int) {
	g.tbl.size(n)
	if len(g.gid) < n {
		g.rep = make([]int32, n)
		g.counts = make([]int32, n)
		g.gid = make([]int32, n)
		g.keys = make([]K, n)
		g.haveKey = make([]bool, n)
	}
}

// groupEq stably groups the records of a by key equality; ha holds their
// cached user hashes and b (same length, non-aliasing) is scratch. One
// table pass numbers the groups in first-appearance order, a prefix over
// the group counts places them, and one stable scatter lands the grouped
// result in b when intoB is true, in a otherwise.
//
// On collision-free input each duplicate costs one eq against its group's
// representative. Under a constant or few-valued hash (the MaxDepth
// fallback) unequal keys share a probe chain, and a record may run eq
// against every group before it: O(n·distinct), still correct and stable.
func (s *sorter[R, K]) groupEq(a []R, ha []uint64, b []R, intoB bool) {
	n := len(a)
	scr := parallel.GetObj[groupScratch[K]](s.sc)
	scr.grow(n)
	t := &scr.tbl
	slots, hashes, mask := t.Slots, t.Hashes, t.Mask
	rep, counts, gid := scr.rep[:n], scr.counts[:n], scr.gid[:n]
	keys, haveKey := scr.keys[:n], scr.haveKey[:n]
	ng := int32(0)
	for i, h := range ha[:n] {
		var k K
		haveK := false
		j := t.Home(h)
		g := slots[j]
		for g >= 0 {
			if hashes[j] == h {
				if !haveK {
					k = s.key(a[i])
					haveK = true
				}
				if !haveKey[g] {
					keys[g] = s.key(a[rep[g]])
					haveKey[g] = true
				}
				if s.eq(keys[g], k) {
					break
				}
			}
			j = (j + 1) & mask
			g = slots[j]
		}
		if g < 0 {
			g = ng
			ng++
			t.Claim(j, g, h)
			rep[g], counts[g], haveKey[g] = int32(i), 0, false
		}
		gid[i] = g
		counts[g]++
	}
	off := int32(0)
	for g, c := range counts[:ng] {
		counts[g] = off
		off += c
	}
	src, dst := a, b[:n]
	if !intoB {
		copy(dst, src)
		src, dst = dst, src
	}
	for i, g := range gid {
		dst[counts[g]] = src[i]
		counts[g]++
	}
	clear(keys[:ng])
	t.reset()
	parallel.PutObj(s.sc, scr)
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
