package core

import (
	"testing"

	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// groupLeaf runs the grouping pass over recs on a driver built from cfg,
// hashing with hash, and returns a copy of the grouping: the pooled Groups
// goes back to the arena before the checks run.
func groupLeaf(recs []rec, hash func(uint64) uint64, cfg Config) (n int, gid, first []int32) {
	d := NewDriver(len(recs), keyOf, hash, eqU64, cfg)
	hs := make([]uint64, len(recs))
	d.HashAll(recs, hs)
	g := d.GroupLeaf(recs, hs)
	n = g.N
	gid = append([]int32(nil), g.Gid...)
	first = append([]int32(nil), g.First...)
	g.Release(d.Scratch())
	d.Release()
	return n, gid, first
}

// checkGrouping checks a grouping of recs against a map reference: groups
// numbered in first-appearance order, each group's first record, and group
// ids that agree with key equality.
func checkGrouping(t *testing.T, recs []rec, n int, gid, first []int32) {
	t.Helper()
	if len(gid) != len(recs) {
		t.Fatalf("%d group ids for %d records", len(gid), len(recs))
	}
	ids := map[uint64]int32{}
	var wantFirst []int32
	for i, r := range recs {
		g, ok := ids[r.key]
		if !ok {
			g = int32(len(wantFirst))
			ids[r.key] = g
			wantFirst = append(wantFirst, int32(i))
		}
		if gid[i] != g {
			t.Fatalf("record %d (key %d): group %d, want %d", i, r.key, gid[i], g)
		}
	}
	if n != len(wantFirst) || len(first) != n {
		t.Fatalf("N = %d with %d firsts, want %d groups", n, len(first), len(wantFirst))
	}
	for g := range wantFirst {
		if first[g] != wantFirst[g] {
			t.Fatalf("group %d: first record %d, want %d", g, first[g], wantFirst[g])
		}
	}
}

func TestGroupLeafFirstAppearance(t *testing.T) {
	keys := []uint64{5, 3, 5, 7, 3, 3, 9, 5}
	recs := make([]rec, len(keys))
	for i, k := range keys {
		recs[i] = rec{key: k, seq: i}
	}
	n, gid, first := groupLeaf(recs, hashMix, Config{})
	want := []int32{0, 1, 0, 2, 1, 1, 3, 0}
	for i := range want {
		if gid[i] != want[i] {
			t.Fatalf("Gid = %v, want %v", gid, want)
		}
	}
	checkGrouping(t, recs, n, gid, first)
}

func TestGroupLeafMatchesReference(t *testing.T) {
	for _, universe := range []uint64{1, 7, 300, 1 << 40} {
		recs := makeRecs(5000, universe, int64(universe))
		n, gid, first := groupLeaf(recs, hashMix, Config{})
		checkGrouping(t, recs, n, gid, first)
	}
}

// TestGroupLeafEqCalls pins the pass's eq cost on collision-free hashes
// (hashMix is a bijection): one eq per duplicate, against its group's first
// record, and none for a record that opens a group.
func TestGroupLeafEqCalls(t *testing.T) {
	recs := makeRecs(6000, 900, 5)
	distinct := map[uint64]bool{}
	for _, r := range recs {
		distinct[r.key] = true
	}
	var st obs.CallStats
	n, gid, first := groupLeaf(recs, hashMix, Config{Stats: &st})
	checkGrouping(t, recs, n, gid, first)
	if want := int64(len(recs) - len(distinct)); st.EqCalls != want {
		t.Fatalf("eq ran %d times, want n - distinct = %d", st.EqCalls, want)
	}
}

// TestGroupLeafConstantHash pins correctness when every key shares one
// hash: all records probe one chain and eq alone separates the groups.
func TestGroupLeafConstantHash(t *testing.T) {
	recs := makeRecs(700, 40, 6)
	n, gid, first := groupLeaf(recs, hashConst, Config{})
	checkGrouping(t, recs, n, gid, first)
}

// TestGroupLeafPooledReuse runs a large leaf then smaller ones on one
// runtime's arena, so the pooled Groups and its table come back with a
// larger leaf's arrays and claimed slots: a stale slot or id would show as
// a wrong group, a too-long array or an out-of-range first record.
func TestGroupLeafPooledReuse(t *testing.T) {
	rt := parallel.NewRuntime(1)
	defer rt.Close()
	cfg := Config{Runtime: rt}
	big := makeRecs(9000, 1<<40, 7)
	for round := 0; round < 4; round++ {
		n, gid, first := groupLeaf(big, hashMix, cfg)
		checkGrouping(t, big, n, gid, first)
		for _, m := range []int{1000, 37, 2, 1} {
			small := makeRecs(m, 11, int64(100*round+m))
			n, gid, first := groupLeaf(small, hashMix, cfg)
			checkGrouping(t, small, n, gid, first)
		}
	}
}

// chainSlots is BuildChains' sizing rule for the sizes the chain tests
// build: 8 slots per record up to 2^15 slots, 2 per record beyond.
var chainSlots = map[int]int{1: 8, 7: 64, 8: 64, 4095: 1 << 15, 4096: 1 << 15, 4097: 1 << 14, 16384: 1 << 15}

// checkChains builds chains over build on sc, looks probe up in them and
// checks the result against a map reference: the table's live size, each
// key's head, chain order and Size, the probe heads, and the Hits a tally
// of those heads leaves. On collision-free hashes eq runs once per build
// duplicate and once per probe hit.
func checkChains(t *testing.T, sc *parallel.Scratch, build, probe []rec, hash func(uint64) uint64, collisionFree bool) {
	t.Helper()
	n := len(build)
	var eqCalls int
	eq := func(a, b uint64) bool { eqCalls++; return a == b }
	hb := make([]uint64, n)
	for i, r := range build {
		hb[i] = hash(r.key)
	}
	c := BuildChains(sc, build, hb, keyOf, eq)
	defer c.Release(sc)
	if m := chainSlots[n]; c.t.mask != uint64(m-1) || c.t.shift != hashutil.SlotShift(m) {
		t.Fatalf("n=%d: mask %d shift %d, want a %d-slot table", n, c.t.mask, c.t.shift, m)
	}
	chains := map[uint64][]int32{}
	for i, r := range build {
		chains[r.key] = append(chains[r.key], int32(i))
	}
	if c.N != n {
		t.Fatalf("n=%d: N = %d", n, c.N)
	}
	if collisionFree && eqCalls != n-len(chains) {
		t.Fatalf("n=%d: build ran eq %d times, want n - distinct = %d", n, eqCalls, n-len(chains))
	}
	for i, r := range build {
		chain := chains[r.key]
		if chain[0] != int32(i) {
			if c.Size[i] != 0 {
				t.Fatalf("n=%d: record %d is not its key's head but has Size %d", n, i, c.Size[i])
			}
			continue
		}
		if int(c.Size[i]) != len(chain) || c.Hits[i] != 0 {
			t.Fatalf("n=%d: head %d has Size %d and Hits %d, want %d and 0", n, i, c.Size[i], c.Hits[i], len(chain))
		}
		x := int32(i)
		for k, want := range chain {
			if x != want {
				t.Fatalf("n=%d: key %d: chain entry %d is %d, want %d", n, r.key, k, x, want)
			}
			x = c.Next[x]
		}
		if x != -1 {
			t.Fatalf("n=%d: key %d: chain runs past its %d records to %d", n, r.key, len(chain), x)
		}
	}

	hp := make([]uint64, len(probe))
	for i, r := range probe {
		hp[i] = hash(r.key)
	}
	heads := make([]int32, len(probe))
	eqCalls = 0
	Lookup(c, build, keyOf, probe, hp, keyOf, eq, heads)
	hits := map[int32]int32{}
	nHits := 0
	for i, r := range probe {
		want := int32(-1)
		if chain, ok := chains[r.key]; ok {
			want = chain[0]
			hits[want]++
			nHits++
		}
		if heads[i] != want {
			t.Fatalf("n=%d: probe %d (key %d): head %d, want %d", n, i, r.key, heads[i], want)
		}
		if heads[i] >= 0 {
			c.Hits[heads[i]]++
		}
	}
	if collisionFree && eqCalls != nHits {
		t.Fatalf("n=%d: lookup ran eq %d times for %d probe hits", n, eqCalls, nHits)
	}
	for _, chain := range chains {
		if x := chain[0]; c.Hits[x] != hits[x] {
			t.Fatalf("n=%d: head %d tallied %d hits, want %d", n, x, c.Hits[x], hits[x])
		}
	}
}

// TestChainsAcrossSizingRule builds chains on both sides of the sizing
// rule's step (load 1/8 up to 2^15 slots at 4096 records, 1/2 from 4097
// on), on collision-free hashes (hashMix is a bijection) and on a constant
// hash, where every key shares one probe chain and eq alone separates them.
func TestChainsAcrossSizingRule(t *testing.T) {
	rt := parallel.NewRuntime(1)
	defer rt.Close()
	for _, n := range []int{1, 7, 8, 4095, 4096, 4097, 16384} {
		universe := uint64(max(1, n/2))
		checkChains(t, rt.Scratch(), makeRecs(n, universe, int64(n)), makeRecs(2*n, 2*universe, int64(n)+1), hashMix, true)
		universe = min(universe, 40)
		checkChains(t, rt.Scratch(), makeRecs(n, universe, int64(n)+2), makeRecs(n, 2*universe, int64(n)+3), hashConst, false)
	}
}

// TestChainsPooledReuse runs one pooled Chains from a 16384-record build
// down to an 8-record build: the arrays only grow, so each smaller build
// must size its mask and shift from its own live table, never from the
// pooled arrays' length, and leave no stale slot behind.
func TestChainsPooledReuse(t *testing.T) {
	rt := parallel.NewRuntime(1)
	defer rt.Close()
	for round := 0; round < 3; round++ {
		for _, n := range []int{16384, 4097, 4096, 4095, 8} {
			universe := uint64(n)
			checkChains(t, rt.Scratch(), makeRecs(n, universe, int64(10*round+n)), makeRecs(n, 2*universe, int64(n)), hashMix, true)
		}
	}
}
