package core

import (
	"testing"

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
