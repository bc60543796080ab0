package core

import (
	"sync/atomic"
	"testing"
)

// These tests pin the counting-eq contract behind Config.WithEqCounter: every
// comparison site in the engine is digest-gated (eq runs only after two full
// 64-bit hashes agree), so on collision-free inputs the full comparison runs
// at most once per record per level — and with distinct keys under a
// bijective hash it never runs at all. The counter wraps the eq closure once
// at driver init, so it sees every site: sampling dedup, heavy
// classification, base-case grouping, and (through Driver.Eq) the terminal
// ops' tables.

func eqCfg(c *atomic.Int64) Config { return Config{}.WithEqCounter(c) }

func TestEqNeverRunsOnDistinctKeys(t *testing.T) {
	// Distinct keys under the bijective hashMix have distinct full hashes, so
	// no digest gate ever opens: zero full comparisons in any variant, on
	// both engine paths.
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"parallel", SerialCutoff + (1 << 14)},
		{"serial", 1 << 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := steadyInput(tc.n)
			for _, v := range []struct {
				name string
				run  func([]rec, Config)
			}{
				{"SortEq", func(a []rec, cfg Config) { SortEq(a, keyOf, hashMix, eqU64, cfg) }},
				{"SortEqInPlace", func(a []rec, cfg Config) { SortEqInPlace(a, keyOf, hashMix, eqU64, cfg) }},
			} {
				var eqs atomic.Int64
				work := append([]rec(nil), in...)
				v.run(work, eqCfg(&eqs))
				if got := eqs.Load(); got != 0 {
					t.Errorf("%s: eq ran %d times on %d distinct keys, want 0 (digest gate must filter everything)",
						v.name, got, tc.n)
				}
			}
		})
	}
}

func TestEqAtMostOncePerRecordPerLevelAllHeavy(t *testing.T) {
	// All records share one key: the top level promotes it and absorbs every
	// record in exactly one level, so the digest-gated comparisons are the
	// per-record classification confirms plus the O(sample) sampling dedup —
	// at most one full comparison per record per level, never O(n·levels) or
	// per-probe-chain.
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"parallel", SerialCutoff + (1 << 14)},
		{"serial", 1 << 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := make([]rec, tc.n)
			for i := range in {
				in[i] = rec{key: 7, seq: i}
			}
			for _, v := range []struct {
				name string
				run  func([]rec, Config)
			}{
				{"SortEq", func(a []rec, cfg Config) { SortEq(a, keyOf, hashMix, eqU64, cfg) }},
				{"SortEqInPlace", func(a []rec, cfg Config) { SortEqInPlace(a, keyOf, hashMix, eqU64, cfg) }},
			} {
				var eqs atomic.Int64
				work := append([]rec(nil), in...)
				v.run(work, eqCfg(&eqs))
				got := eqs.Load()
				t.Logf("%s/%s: %d eq calls for %d records", tc.name, v.name, got, tc.n)
				// One level: <= n classification confirms + sampling-dedup
				// slack (an all-duplicate sample eq-confirms every sample
				// element; the serial path samples up to ~n/4).
				if limit := int64(tc.n) + int64(tc.n)/4 + 64; got > limit {
					t.Errorf("%s: eq ran %d times for %d one-key records in a one-level sort, want <= %d",
						v.name, got, tc.n, limit)
				}
				if got == 0 {
					t.Errorf("%s: eq never ran on an all-duplicate input — the counter is not wired through", v.name)
				}
			}
		})
	}
}

func TestEqBoundedWithDuplicates(t *testing.T) {
	// A duplicated-key universe forces eq work (equal keys share full
	// hashes), but the total must stay O(n) across all levels — one gated
	// confirm per record per level — not O(n^2) pairwise.
	n := 1 << 16
	in := makeRecs(n, 5000, 29)
	var eqs atomic.Int64
	work := append([]rec(nil), in...)
	SortEq(work, keyOf, hashMix, eqU64, eqCfg(&eqs))
	got := eqs.Load()
	t.Logf("%d eq calls for %d records over 5000 keys", got, n)
	if limit := int64(4 * n); got > limit {
		t.Errorf("eq ran %d times for %d records with duplicates, want <= %d", got, n, limit)
	}

	// A call that is a single leaf (n <= BaseCase) draws no sample: its
	// only eq calls are the leaf table's, one per duplicate against its
	// group's representative.
	leaf := makeRecs(4096, 1000, 31)
	distinct := map[uint64]bool{}
	for _, r := range leaf {
		distinct[r.key] = true
	}
	eqs.Store(0)
	SortEq(leaf, keyOf, hashMix, eqU64, eqCfg(&eqs))
	if got, want := eqs.Load(), int64(len(leaf)-len(distinct)); got != want {
		t.Errorf("leaf-only call: eq ran %d times for %d records over %d keys, want exactly %d",
			got, len(leaf), len(distinct), want)
	}
}
