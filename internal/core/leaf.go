package core

import (
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/sampling"
)

// This file holds every hash-table base case of the engine (the paper's
// Section 3.3 base case): one grouping pass for the leaves of the sorter and
// the absorbing ops, and one chained build and lookup for the join leaves
// and the grouped join. The ops keep only what they do with the groups.
//
// Both read the leaf's cached 64-bit user hashes, and eq (with its key
// extractions) runs only when two full hashes agree, so on collision-free
// inputs a record with a new key costs no key extraction and no eq at all.

// leafTable is the open-addressing table of the hash-table base cases. Each
// slot holds an int32 payload (-1 when empty) beside the entry's full cached
// hash. Outside the MaxDepth fallback a leaf holds at most alpha records, so
// its table has at most 2·alpha slots and stays cache-resident.
type leafTable struct {
	slots  []int32
	hashes []uint64
	mask   uint64 // live slot count - 1
	shift  uint
	used   []uint64 // claimed slots, for the O(used) reset
}

// size shapes the table for n entries: CeilPow2(2n) live slots (load at
// most 1/2). Pooled arrays only grow, and unused slots stay empty.
func (t *leafTable) size(n int) {
	m := sampling.CeilPow2(2 * n)
	if len(t.slots) < m {
		t.slots = make([]int32, m)
		for i := range t.slots {
			t.slots[i] = -1
		}
		t.hashes = make([]uint64, m)
	}
	t.mask, t.shift = uint64(m-1), hashutil.SlotShift(m)
}

// home is the first slot a probe for h visits. It comes from hashutil.Slot:
// the recursion consumed low hash windows as bucket ids, so a leaf's
// records share their low bits and a low-bits index would collapse the
// table into a few linear clusters.
func (t *leafTable) home(h uint64) uint64 { return hashutil.Slot(h, t.shift) }

// claim fills the empty slot i with payload v and full hash h.
func (t *leafTable) claim(i uint64, v int32, h uint64) {
	t.slots[i], t.hashes[i] = v, h
	t.used = append(t.used, i)
}

// reset empties the claimed slots.
func (t *leafTable) reset() {
	for _, i := range t.used {
		t.slots[i] = -1
	}
	t.used = t.used[:0]
}

// Groups is one leaf's grouping: its distinct keys numbered 0..N-1 in
// first-appearance order. Gid[i] is record i's group and First[g] group g's
// first record. Pooled with its table (the arrays only grow); the op reads
// what its emit needs and releases it.
type Groups struct {
	N     int
	Gid   []int32
	First []int32
	size  []int32 // the sorter's per-group offsets
	t     leafTable
}

// GroupLeaf groups one leaf's records by key from their cached hashes hcur:
// one table pass whose slots hold group ids. It is the one grouping of
// every table leaf — the sorter's (a prefix over the group sizes and a
// stable scatter by Gid), dedup's (the First records), distinct counting's
// (N), histogram's and collect-reduce's (an in-order fold over Gid) — and
// so their one key-extraction policy: on a full-hash match both keys are
// extracted, the record's and its group's first record's, and the driver's
// eq compares them, so its calls are counted with the call's.
//
// On collision-free input each duplicate costs one eq against its group's
// first record. Under a constant or few-valued hash (the MaxDepth fallback)
// unequal keys share a probe chain, and a record may run eq against every
// group before it: O(n·distinct), still correct.
func (d *Driver[R, K]) GroupLeaf(cur []R, hcur []uint64) *Groups {
	n := len(cur)
	g := parallel.GetObj[Groups](d.sc)
	t := &g.t
	t.size(n)
	if cap(g.Gid) < n {
		g.Gid, g.First, g.size = make([]int32, n), make([]int32, n), make([]int32, n)
	}
	gid, first := g.Gid[:n], g.First[:n]
	slots, hashes, mask := t.slots, t.hashes, t.mask
	ng := int32(0)
	for i, h := range hcur[:n] {
		j := t.home(h)
		x := slots[j]
		for x >= 0 {
			if hashes[j] == h && d.eq(d.key(cur[first[x]]), d.key(cur[i])) {
				break
			}
			j = (j + 1) & mask
			x = slots[j]
		}
		if x < 0 {
			x = ng
			ng++
			t.claim(j, x, h)
			first[x] = int32(i)
		}
		gid[i] = x
	}
	g.N = int(ng)
	g.Gid, g.First = gid, first[:ng]
	return g
}

// Release empties the table and returns g to the arena.
func (g *Groups) Release(sc *parallel.Scratch) {
	g.t.reset()
	parallel.PutObj(sc, g)
}

// Chains is a join leaf's build over one side: a table whose slot payload
// is the key's first build record, and beside it per build record the next
// record of its key (-1 ends the chain), so each key's records chain in
// input order. A key's first record x also holds the chain's last record
// tail[x], the key's record count Size[x] and its probe hits Hits[x] (the
// counting join's tally); Size is 0 at every other record. N is the build
// side's record count. Pooled; the arrays only grow.
type Chains struct {
	t                leafTable
	Next, Size, Hits []int32
	tail             []int32
	N                int
}

// BuildChains chains the records of build per key, consuming its cached
// hash plane hb. The caller releases the result.
func BuildChains[X, K any](sc *parallel.Scratch, build []X, hb []uint64, key func(X) K, eq func(K, K) bool) *Chains {
	n := len(build)
	c := parallel.GetObj[Chains](sc)
	t := &c.t
	t.size(n)
	if len(c.Next) < n {
		m := sampling.CeilPow2(n)
		a := make([]int32, 4*m) // one allocation for the four arrays
		c.Next, c.tail, c.Size, c.Hits = a[:m], a[m:2*m], a[2*m:3*m], a[3*m:]
	}
	c.N = n
	slots, hashes, mask := t.slots, t.hashes, t.mask
	next, tail, size := c.Next, c.tail, c.Size
	for i, h := range hb[:n] {
		var k K
		haveK := false
		s := t.home(h)
		x := slots[s]
		for x >= 0 {
			if hashes[s] == h {
				if !haveK {
					k, haveK = key(build[i]), true
				}
				if eq(key(build[x]), k) {
					break
				}
			}
			s = (s + 1) & mask
			x = slots[s]
		}
		next[i] = -1
		if x < 0 {
			t.claim(s, int32(i), h)
			tail[i], size[i], c.Hits[i] = int32(i), 1, 0
			continue
		}
		next[tail[x]] = int32(i)
		tail[x] = int32(i)
		size[x]++
		size[i] = 0
	}
	return c
}

// Release empties the table and returns c to the arena.
func (c *Chains) Release(sc *parallel.Scratch) {
	c.t.reset()
	parallel.PutObj(sc, c)
}

// Lookup resolves probe records against c, a build over build: heads[i]
// is the first build record of probe[i]'s key (hp[i] is its cached hash),
// or -1 when the build side lacks the key. eq — and the probe key's
// extraction — run only on a full-hash match, exactly as in the build.
func Lookup[X, Y, K any](c *Chains, build []X, keyX func(X) K, probe []Y, hp []uint64, keyY func(Y) K, eq func(K, K) bool, heads []int32) {
	t := &c.t
	slots, hashes, mask := t.slots, t.hashes, t.mask
	for i, h := range hp {
		var k K
		haveK := false
		s := t.home(h)
		x := slots[s]
		for x >= 0 {
			if hashes[s] == h {
				if !haveK {
					k, haveK = keyY(probe[i]), true
				}
				if eq(keyX(build[x]), k) {
					break
				}
			}
			s = (s + 1) & mask
			x = slots[s]
		}
		heads[i] = x
	}
}
