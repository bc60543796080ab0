package rel

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// Counting-eq contract for the relational ops: the terminal tables (deduper,
// counter, joiner leaves) pull their eq from Driver.Eq, so one counter
// installed with WithEqCounter sees every comparison site — and because all
// of them are digest-gated, distinct keys under a bijective hash mean zero
// full comparisons, while one-key (one-level) inputs mean at most one per
// record per level plus the O(sample) sampling dedup.

func distinctRecs(n int) []rec {
	recs := make([]rec, n)
	for i := range recs {
		recs[i] = rec{key: uint64(i)*2654435761 + 1, seq: int32(i)}
	}
	return recs
}

func TestEqNeverRunsOnDistinctKeysAllOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"parallel", core.SerialCutoff + 9876},
		{"serial", 1 << 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := distinctRecs(tc.n)
			for _, op := range []struct {
				name string
				run  func(cfg core.Config)
			}{
				{"Dedup", func(cfg core.Config) { Dedup(recs, recKey, hashMix, eqU64, cfg) }},
				{"CountDistinct", func(cfg core.Config) { CountDistinct(recs, recKey, hashMix, eqU64, cfg) }},
				{"TopK", func(cfg core.Config) { TopK(recs, 5, recKey, hashMix, eqU64, cfg) }},
			} {
				var eqs atomic.Int64
				op.run(core.Config{}.WithEqCounter(&eqs))
				if got := eqs.Load(); got != 0 {
					t.Errorf("%s: eq ran %d times on %d distinct keys, want 0", op.name, got, tc.n)
				}
			}
		})
	}
}

func TestEqNeverRunsOnDisjointDistinctJoin(t *testing.T) {
	// Both relations distinct, key spaces disjoint: the join compares digests
	// only, finds nothing, and never runs a full comparison.
	na, nb := core.SerialCutoff+5000, 1<<15
	as := make([]rec, na)
	bs := make([]rec, nb)
	for i := range as {
		as[i] = rec{key: uint64(i)*4 + 0, seq: int32(i)}
	}
	for i := range bs {
		bs[i] = rec{key: uint64(i)*4 + 2, seq: int32(i)}
	}
	pair := func(a, b rec) [2]int32 { return [2]int32{a.seq, b.seq} }
	for _, op := range []struct {
		name string
		run  func(cfg core.Config) int
	}{
		{"Join", func(cfg core.Config) int { return len(Join(as, bs, recKey, recKey, hashMix, eqU64, pair, cfg)) }},
		{"SemiJoin", func(cfg core.Config) int { return len(SemiJoin(as, bs, recKey, recKey, hashMix, eqU64, cfg)) }},
		{"JoinCount", func(cfg core.Config) int {
			return len(JoinCount(as, nil, bs, nil, recKey, recKey, hashMix, eqU64, false, false, cfg))
		}},
	} {
		var eqs atomic.Int64
		if rows := op.run(core.Config{}.WithEqCounter(&eqs)); rows != 0 {
			t.Fatalf("%s: %d rows from disjoint relations", op.name, rows)
		}
		if got := eqs.Load(); got != 0 {
			t.Errorf("%s: eq ran %d times on disjoint distinct relations, want 0", op.name, got)
		}
	}
}

func TestEqAtMostOncePerRecordPerLevelOneKey(t *testing.T) {
	// One shared key, one level: classification eq-confirms each record at
	// most once, the sampling dedup adds its O(sample) term, and the
	// broadcast emits rows without any further comparisons — the output
	// (na*nb rows for the join) must cost zero additional eq calls.
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"parallel", core.SerialCutoff + (1 << 14)},
		{"serial", 1 << 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := make([]rec, tc.n)
			for i := range recs {
				recs[i] = rec{key: 7, seq: int32(i)}
			}
			for _, op := range []struct {
				name string
				run  func(cfg core.Config)
			}{
				{"Dedup", func(cfg core.Config) { Dedup(recs, recKey, hashMix, eqU64, cfg) }},
				{"CountDistinct", func(cfg core.Config) { CountDistinct(recs, recKey, hashMix, eqU64, cfg) }},
				{"TopK", func(cfg core.Config) { TopK(recs, 3, recKey, hashMix, eqU64, cfg) }},
			} {
				var eqs atomic.Int64
				op.run(core.Config{}.WithEqCounter(&eqs))
				got := eqs.Load()
				t.Logf("%s/%s: %d eq calls for %d records", tc.name, op.name, got, tc.n)
				if limit := int64(tc.n) + int64(tc.n)/4 + 64; got > limit {
					t.Errorf("%s: eq ran %d times for %d one-key records, want <= %d", op.name, got, tc.n, limit)
				}
				if got == 0 {
					t.Errorf("%s: eq never ran on an all-duplicate input — counter not wired", op.name)
				}
			}
		})
	}
}

func TestEqJoinOneKeyCostsNoOutputComparisons(t *testing.T) {
	na, nb := 1<<16, 1<<10
	as := make([]rec, na)
	bs := make([]rec, nb)
	for i := range as {
		as[i] = rec{key: 3, seq: int32(i)}
	}
	for i := range bs {
		bs[i] = rec{key: 3, seq: int32(i)}
	}
	pair := func(a, b rec) [2]int32 { return [2]int32{a.seq, b.seq} }
	var eqs atomic.Int64
	rows := Join(as, bs, recKey, recKey, hashMix, eqU64, pair, core.Config{}.WithEqCounter(&eqs))
	if len(rows) != na*nb {
		t.Fatalf("one-key join: %d rows, want %d", len(rows), na*nb)
	}
	got := eqs.Load()
	t.Logf("join: %d eq calls for %d+%d records emitting %d rows", got, na, nb, len(rows))
	// The bound is linear in the INPUT (plus sampling slack), not the
	// na*nb-row output.
	if limit := int64(na+nb) + int64(na+nb)/4 + 64; got > limit {
		t.Errorf("join eq ran %d times for %d input records, want <= %d (independent of %d output rows)",
			got, na+nb, limit, len(rows))
	}
}
