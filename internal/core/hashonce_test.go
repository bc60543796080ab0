package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// These tests pin the hash-once contract: the user hash closure runs exactly
// once per record per sort (the hashAll pass), and on collision-free inputs
// the user key closure does too — sampling, bucket ids, heavy-table probes
// and the base cases all consume cached hashes, and eq-driven key
// re-extraction only happens when two full 64-bit hashes agree.

// countingClosures wraps key/hash with atomic call counters (the sorter
// invokes them from pool workers).
func countingClosures() (key func(rec) uint64, hash func(uint64) uint64, keyCalls, hashCalls *atomic.Int64) {
	keyCalls, hashCalls = new(atomic.Int64), new(atomic.Int64)
	key = func(r rec) uint64 { keyCalls.Add(1); return r.key }
	hash = func(k uint64) uint64 { hashCalls.Add(1); return hashMix(k) }
	return
}

func TestSortEqClosuresOncePerRecord(t *testing.T) {
	// Distinct keys: hashMix (splitmix64) is a bijection, so distinct keys
	// have distinct full 64-bit hashes and neither eq nor any lazy key
	// extraction ever fires — both closures must run exactly n times.
	// n > SerialCutoff so the parallel counting+scatter path runs too.
	n := (1 << 16) + (1 << 14)
	in := steadyInput(n)
	work := append([]rec(nil), in...)
	key, hash, keyCalls, hashCalls := countingClosures()
	SortEq(work, key, hash, eqU64, Config{})
	if got := hashCalls.Load(); got != int64(n) {
		t.Fatalf("hash closure ran %d times for %d records, want exactly once per record", got, n)
	}
	if got := keyCalls.Load(); got != int64(n) {
		t.Fatalf("key closure ran %d times for %d distinct records, want exactly once per record", got, n)
	}
	checkSemisorted(t, in, work)
}

func TestHashClosureOncePerRecordAllVariants(t *testing.T) {
	// Duplicated and heavy keys force eq comparisons (which may re-extract
	// keys), but the hash closure itself must still run exactly once per
	// record in every variant: it has no call site outside the hashAll pass.
	n := (1 << 16) + 1234
	in := makeRecs(n, 40, 11) // ~40 distinct keys: all heavy
	t.Run("SortEq", func(t *testing.T) {
		work := append([]rec(nil), in...)
		key, hash, _, hashCalls := countingClosures()
		SortEq(work, key, hash, eqU64, Config{})
		if got := hashCalls.Load(); got != int64(n) {
			t.Fatalf("hash closure ran %d times, want %d", got, n)
		}
		checkSemisorted(t, in, work)
	})
	t.Run("SortLess", func(t *testing.T) {
		work := append([]rec(nil), in...)
		key, hash, _, hashCalls := countingClosures()
		SortLess(work, key, hash, lessU64, Config{})
		if got := hashCalls.Load(); got != int64(n) {
			t.Fatalf("hash closure ran %d times, want %d", got, n)
		}
		checkSemisorted(t, in, work)
	})
	t.Run("SortEqInPlace", func(t *testing.T) {
		work := append([]rec(nil), in...)
		key, hash, _, hashCalls := countingClosures()
		SortEqInPlace(work, key, hash, eqU64, Config{})
		if got := hashCalls.Load(); got != int64(n) {
			t.Fatalf("hash closure ran %d times, want %d", got, n)
		}
	})
}

func TestHeavyProbeAtMostOncePerRecordPerLevel(t *testing.T) {
	// All records share one key: the top level promotes it, classifies every
	// record heavy (collapse mode), and finishes in exactly one level — so
	// the heavy table must be probed exactly once per record. The id-plane
	// design guarantees it structurally (classify is the only probe site and
	// the scatter replays cached ids); a count+scatter double probe — the
	// bug class this test pins — would show up as 2n.
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"parallel", (1 << 16) + (1 << 14)}, // above SerialCutoff
		{"serial", 1 << 15},                 // below SerialCutoff
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := make([]rec, tc.n)
			for i := range in {
				in[i] = rec{key: 7, seq: i}
			}
			work := append([]rec(nil), in...)
			var stats obs.CallStats
			SortEq(work, keyOf, hashMix, eqU64, Config{Stats: &stats})
			if got := stats.ProbeCalls; got != int64(tc.n) {
				t.Fatalf("heavy table probed %d times for %d records in a one-level sort, want exactly %d", got, tc.n, tc.n)
			}
			checkSemisorted(t, in, work)
		})
	}
}

func TestHeavyProbeAtMostOncePerRecordPerLevelInPlace(t *testing.T) {
	// Same contract for the in-place variant: the cycle chase must replay
	// the cached id plane, not re-probe the heavy table at every hop (an
	// all-heavy input would otherwise probe far more than n times).
	n := 1 << 17
	in := make([]rec, n)
	for i := range in {
		in[i] = rec{key: 9, seq: i}
	}
	work := append([]rec(nil), in...)
	var stats obs.CallStats
	SortEqInPlace(work, keyOf, hashMix, eqU64, Config{Stats: &stats})
	if got := stats.ProbeCalls; got != int64(n) {
		t.Fatalf("in-place heavy table probed %d times for %d records in a one-level sort, want exactly %d", got, n, n)
	}
}

func TestHeavyProbeCountMixedHotAndDistinct(t *testing.T) {
	// Half the records carry 10 hot keys (heavy at the top level), half are
	// distinct. With default parameters every light bucket lands under the
	// base-case threshold, so the top level is the only one that probes:
	// exactly n probes despite duplicates forcing eq work.
	n := 1 << 17
	in := make([]rec, n)
	for i := range in {
		if i%2 == 0 {
			in[i] = rec{key: uint64(i % 10), seq: i}
		} else {
			in[i] = rec{key: 1000 + uint64(i)*2654435761, seq: i}
		}
	}
	work := append([]rec(nil), in...)
	var stats obs.CallStats
	SortEq(work, keyOf, hashMix, eqU64, Config{Stats: &stats})
	if got := stats.ProbeCalls; got != int64(n) {
		t.Fatalf("heavy table probed %d times for %d records, want exactly %d (one probing level)", got, n, n)
	}
	checkSemisorted(t, in, work)
}

func TestHeavyHashesNeverMovedAfterClassification(t *testing.T) {
	// Heavy records are final at the level that classifies them: no scatter
	// may move (or even write) their hashes afterwards. The distribution
	// layer's hLive dead-suffix is the mechanism; here we pin the end-to-end
	// effect. All records are heavy (one key), so beyond sampling and the
	// n classification hashes, the hash plane must never be touched: the
	// hash closure runs exactly n times, and key extractions stay O(n)
	// (classification eq checks), not O(n * levels).
	n := (1 << 16) + 999
	in := make([]rec, n)
	for i := range in {
		in[i] = rec{key: 3, seq: i}
	}
	work := append([]rec(nil), in...)
	key, hash, keyCalls, hashCalls := countingClosures()
	SortEq(work, key, hash, eqU64, Config{})
	if got := hashCalls.Load(); got != int64(n) {
		t.Fatalf("hash closure ran %d times, want exactly %d", got, n)
	}
	if got, limit := keyCalls.Load(), int64(3*n); got > limit {
		t.Fatalf("key closure ran %d times for an all-heavy input, want <= %d", got, limit)
	}
	checkSemisorted(t, in, work)
}

func TestSortEqDuplicateKeysKeyCallsBounded(t *testing.T) {
	// With duplicates the key closure may run more than once per record
	// (eq verification of hash-equal pairs), but it must stay O(n): one
	// extraction in the hash pass plus a bounded number inside eq-gated
	// paths — not once per record per recursion level.
	n := 1 << 16
	in := makeRecs(n, 5000, 23)
	work := append([]rec(nil), in...)
	key, hash, keyCalls, _ := countingClosures()
	SortEq(work, key, hash, eqU64, Config{})
	if got, limit := keyCalls.Load(), int64(4*n); got > limit {
		t.Fatalf("key closure ran %d times for %d records with duplicates, want <= %d", got, n, limit)
	}
	checkSemisorted(t, in, work)
}
