package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/hashutil"
)

type rec struct {
	key uint64
	seq int
}

func keyOf(r rec) uint64        { return r.key }
func hashMix(k uint64) uint64   { return hashutil.Mix64(k) }
func hashIdent(k uint64) uint64 { return k }
func eqU64(a, b uint64) bool    { return a == b }
func lessU64(a, b uint64) bool  { return a < b }
func hashConst(uint64) uint64   { return 42 }

// makeRecs builds n records with keys drawn from [0, universe).
func makeRecs(n int, universe uint64, seed int64) []rec {
	rng := rand.New(rand.NewSource(seed))
	a := make([]rec, n)
	for i := range a {
		a[i] = rec{key: uint64(rng.Int63n(int64(universe))), seq: i}
	}
	return a
}

// checkSemisorted verifies the three semisort invariants:
// (1) the output is a permutation of the input (seq fields are a bijection),
// (2) records with equal keys are contiguous,
// (3) the grouping is stable (seq increases within each key group).
func checkSemisorted(t *testing.T, in, out []rec) {
	t.Helper()
	if len(in) != len(out) {
		t.Fatalf("length changed: %d -> %d", len(in), len(out))
	}
	want := make(map[int]uint64, len(in))
	for _, r := range in {
		want[r.seq] = r.key
	}
	seen := make(map[int]bool, len(out))
	for _, r := range out {
		if seen[r.seq] {
			t.Fatalf("record seq %d duplicated", r.seq)
		}
		seen[r.seq] = true
		if want[r.seq] != r.key {
			t.Fatalf("record seq %d key changed: %d -> %d", r.seq, want[r.seq], r.key)
		}
	}
	last := make(map[uint64]int) // key -> index of last group occurrence
	closed := make(map[uint64]bool)
	prevSeq := make(map[uint64]int)
	for i, r := range out {
		if closed[r.key] {
			t.Fatalf("key %d not contiguous (reappears at %d)", r.key, i)
		}
		if j, ok := last[r.key]; ok && j != i-1 {
			t.Fatalf("key %d not contiguous at %d (prev %d)", r.key, i, j)
		}
		if j, ok := last[r.key]; ok && j == i-1 {
			if prevSeq[r.key] > r.seq {
				t.Fatalf("key %d unstable: seq %d after %d", r.key, r.seq, prevSeq[r.key])
			}
		}
		if i > 0 && out[i-1].key != r.key {
			closed[out[i-1].key] = true
		}
		last[r.key] = i
		prevSeq[r.key] = r.seq
	}
}

func cfgSmall() Config {
	// Shrink parameters so small tests still exercise recursion.
	return Config{LightBuckets: 8, BaseCase: 16, MinSubarray: 8, MaxSubarrays: 16, SampleFactor: 8}
}

func TestSortEqBasic(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 100, 1000, 20000} {
		for _, u := range []uint64{1, 2, 5, 64, 1 << 30} {
			in := makeRecs(n, u, int64(n)*7+int64(u))
			out := append([]rec(nil), in...)
			SortEq(out, keyOf, hashMix, eqU64, Config{})
			checkSemisorted(t, in, out)
		}
	}
}

func TestSortLessBasic(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 100, 1000, 20000} {
		for _, u := range []uint64{1, 2, 5, 64, 1 << 30} {
			in := makeRecs(n, u, int64(n)*13+int64(u))
			out := append([]rec(nil), in...)
			SortLess(out, keyOf, hashMix, lessU64, Config{})
			checkSemisorted(t, in, out)
		}
	}
}

func TestSortEqSmallConfigRecursion(t *testing.T) {
	// With tiny buckets and base cases, even modest inputs recurse deeply.
	for _, n := range []int{100, 1000, 5000} {
		for _, u := range []uint64{1, 3, 10, 1000} {
			in := makeRecs(n, u, int64(n)+int64(u))
			out := append([]rec(nil), in...)
			SortEq(out, keyOf, hashMix, eqU64, cfgSmall())
			checkSemisorted(t, in, out)
		}
	}
}

func TestSortLessSmallConfigRecursion(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		for _, u := range []uint64{1, 3, 10, 1000} {
			in := makeRecs(n, u, 3*int64(n)+int64(u))
			out := append([]rec(nil), in...)
			SortLess(out, keyOf, hashMix, lessU64, cfgSmall())
			checkSemisorted(t, in, out)
		}
	}
}

func TestIdentityHashIntegerVariant(t *testing.T) {
	// The Ours-i variants use the identity hash; low bits of the key become
	// bucket ids directly.
	in := makeRecs(50000, 1000, 99)
	out := append([]rec(nil), in...)
	SortEq(out, keyOf, hashIdent, eqU64, Config{})
	checkSemisorted(t, in, out)
}

func TestConstantHashFallback(t *testing.T) {
	// A constant hash defeats bucketing entirely; the MaxDepth guard must
	// still terminate with a correct (stable) grouping.
	in := makeRecs(3000, 17, 5)
	out := append([]rec(nil), in...)
	SortEq(out, keyOf, hashConst, eqU64, Config{LightBuckets: 4, BaseCase: 64, MaxDepth: 3, MinSubarray: 16})
	checkSemisorted(t, in, out)

	out2 := append([]rec(nil), in...)
	SortLess(out2, keyOf, hashConst, lessU64, Config{LightBuckets: 4, BaseCase: 64, MaxDepth: 3, MinSubarray: 16})
	checkSemisorted(t, in, out2)

	// A few-valued hash puts unequal keys with equal full hashes into one
	// probe chain of the leaf table: eq must tell them apart, in a single
	// leaf (n <= BaseCase) and under the MaxDepth fallback of a multi-level
	// call. About three records per key keep the keys light, so they reach
	// the leaves instead of the heavy table.
	hashMod3 := func(k uint64) uint64 { return k % 3 }
	for _, tc := range []struct {
		name string
		n    int
		cfg  Config
	}{
		{"leaf", 3000, Config{BaseCase: 4096}},
		{"levels", 3000, Config{LightBuckets: 4, BaseCase: 64, MaxDepth: 3, MinSubarray: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := makeRecs(tc.n, 1000, 6)
			out := append([]rec(nil), in...)
			SortEq(out, keyOf, hashMod3, eqU64, tc.cfg)
			checkSemisorted(t, in, out)
		})
	}
}

func TestDeterminism(t *testing.T) {
	in := makeRecs(30000, 100, 11)
	a := append([]rec(nil), in...)
	b := append([]rec(nil), in...)
	SortEq(a, keyOf, hashMix, eqU64, Config{Seed: 7})
	SortEq(b, keyOf, hashMix, eqU64, Config{Seed: 7})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("semisort= not deterministic across runs with the same seed")
	}
}

func TestAllEqualKeys(t *testing.T) {
	in := make([]rec, 100000)
	for i := range in {
		in[i] = rec{key: 7, seq: i}
	}
	out := append([]rec(nil), in...)
	SortEq(out, keyOf, hashMix, eqU64, Config{})
	checkSemisorted(t, in, out)
	for i, r := range out {
		if r.seq != i {
			t.Fatalf("stability broken at %d: seq %d", i, r.seq)
		}
	}
}

func TestAllDistinctKeys(t *testing.T) {
	n := 120000
	in := make([]rec, n)
	for i := range in {
		in[i] = rec{key: uint64(i) * 2654435761, seq: i}
	}
	out := append([]rec(nil), in...)
	SortLess(out, keyOf, hashMix, lessU64, Config{})
	checkSemisorted(t, in, out)
}

func TestQuickPropertySemisortEq(t *testing.T) {
	f := func(keys []uint16, seed uint64) bool {
		in := make([]rec, len(keys))
		for i, k := range keys {
			in[i] = rec{key: uint64(k % 64), seq: i}
		}
		out := append([]rec(nil), in...)
		SortEq(out, keyOf, hashMix, eqU64, Config{Seed: seed, LightBuckets: 4, BaseCase: 8, MinSubarray: 4, SampleFactor: 4})
		// Re-run invariant checks without t.Fatal: contiguity only.
		seenClosed := map[uint64]bool{}
		for i := range out {
			k := out[i].key
			if i > 0 && out[i-1].key != k {
				seenClosed[out[i-1].key] = true
				if seenClosed[k] {
					return false
				}
			}
		}
		return len(out) == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// setWorkers adjusts GOMAXPROCS for determinism tests and returns the
// previous value.
func setWorkers(n int) int { return runtime.GOMAXPROCS(n) }
