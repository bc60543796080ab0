package semisort_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	semisort "repro"
	"repro/internal/parallel"
)

// The three primitives are different views of the same grouping; this file
// checks they agree with each other on random inputs:
//
//	len(GroupsEq(a))          == len(Histogram(a))
//	group sizes               == histogram counts
//	sum over CollectReduce(+) == histogram count per key (map = 1)

func TestPrimitivesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		n := 10000 + rng.Intn(40000)
		distinct := 1 + rng.Intn(300)
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(rng.Intn(distinct))
		}
		ident := func(x uint64) uint64 { return x }
		eq := func(x, y uint64) bool { return x == y }

		hist := semisort.Histogram(a, ident, semisort.Hash64, eq)
		counts := map[uint64]int64{}
		for _, kc := range hist {
			counts[kc.Key] = kc.Count
		}

		ones := semisort.CollectReduce(a, ident, semisort.Hash64, eq,
			func(uint64) int64 { return 1 },
			func(x, y int64) int64 { return x + y }, 0)
		if len(ones) != len(hist) {
			t.Fatalf("trial %d: collect-reduce found %d keys, histogram %d", trial, len(ones), len(hist))
		}
		for _, kv := range ones {
			if counts[kv.Key] != kv.Value {
				t.Fatalf("trial %d: key %d collect-reduce %d vs histogram %d", trial, kv.Key, kv.Value, counts[kv.Key])
			}
		}

		b := append([]uint64(nil), a...)
		groups := semisort.GroupsEq(b, ident, semisort.Hash64, eq)
		if len(groups) != len(hist) {
			t.Fatalf("trial %d: %d groups vs %d histogram keys", trial, len(groups), len(hist))
		}
		for _, g := range groups {
			k := b[g.Lo]
			if int64(g.Hi-g.Lo) != counts[k] {
				t.Fatalf("trial %d: key %d group size %d vs count %d", trial, k, g.Hi-g.Lo, counts[k])
			}
		}
	}
}

// TestSortPairsEqIdenticalAcrossWorkers: a fixed seed must produce
// byte-identical SortPairsEq output at every worker count — the parallel
// scatter's exact offsets fix every destination regardless of scheduling.
func TestSortPairsEqIdenticalAcrossWorkers(t *testing.T) {
	n := 1 << 18 // above the serial cutoff, so the parallel scatter runs
	rng := rand.New(rand.NewSource(99))
	in := make([]semisort.Pair[uint64, uint64], n)
	for i := range in {
		in[i] = semisort.Pair[uint64, uint64]{Key: uint64(rng.Intn(1 << 12)), Value: uint64(i)}
	}
	run := func(workers int) []semisort.Pair[uint64, uint64] {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		out := append([]semisort.Pair[uint64, uint64](nil), in...)
		semisort.SortPairsEq(out, semisort.Hash64, semisort.WithSeed(5))
		return out
	}
	ref := run(1)
	for _, workers := range []int{1, 4, parallel.Workers()} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("output differs at workers=%d", workers)
		}
	}
}

// TestStableAndInPlaceAgreeOnGroupSizes: both semisort variants must
// induce identical key->multiplicity maps.
func TestStableAndInPlaceAgreeOnGroupSizes(t *testing.T) {
	f := func(raw []uint16) bool {
		a := make([]uint64, len(raw))
		for i, v := range raw {
			a[i] = uint64(v % 128)
		}
		ident := func(x uint64) uint64 { return x }
		eq := func(x, y uint64) bool { return x == y }
		b := append([]uint64(nil), a...)
		c := append([]uint64(nil), a...)
		semisort.SortEq(b, ident, semisort.Hash64, eq)
		semisort.SortEqInPlace(c, ident, semisort.Hash64, eq)
		sizes := func(x []uint64) map[uint64]int {
			m := map[uint64]int{}
			for _, k := range x {
				m[k]++
			}
			return m
		}
		sb, sc := sizes(b), sizes(c)
		if len(sb) != len(sc) {
			return false
		}
		for k, v := range sb {
			if sc[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
