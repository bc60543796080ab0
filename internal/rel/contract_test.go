package rel

import (
	"sync/atomic"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// These tests pin the contracts the relational ops inherit from the shared
// distribution driver: the user hash closure runs exactly once per record
// per call (for joins: per record of either relation), and the heavy table
// is probed at most once per record per level — via the same counting
// closures and CallStats probe counts the sorter's and collect's contract
// tests use.

func countingHash(calls *atomic.Int64) func(uint64) uint64 {
	return func(k uint64) uint64 { calls.Add(1); return hashMix(k) }
}

func TestHashOncePerRecordAllOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []rec
	}{
		{"uniform-parallel", uniformRecs(core.SerialCutoff+12345, 31)},
		{"zipf-parallel", zipfRecs(core.SerialCutoff+23456, 1.2, 32)},
		{"zipf-serial", zipfRecs(1<<15, 1.2, 33)},
		{"tiny-base-only", uniformRecs(1000, 34)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := int64(len(tc.recs))
			for _, op := range []struct {
				name string
				run  func(hash func(uint64) uint64)
			}{
				{"Dedup", func(h func(uint64) uint64) { Dedup(tc.recs, recKey, h, eqU64, core.Config{}) }},
				{"CountDistinct", func(h func(uint64) uint64) { CountDistinct(tc.recs, recKey, h, eqU64, core.Config{}) }},
				{"TopK", func(h func(uint64) uint64) { TopK(tc.recs, 5, recKey, h, eqU64, core.Config{}) }},
			} {
				var calls atomic.Int64
				op.run(countingHash(&calls))
				if got := calls.Load(); got != n {
					t.Errorf("%s: hash ran %d times for %d records, want exactly once per record", op.name, got, n)
				}
			}
		})
	}
}

func TestJoinHashOncePerRecordBothSides(t *testing.T) {
	as := zipfRecs(core.SerialCutoff+5000, 1.2, 35)
	bs := uniformRecs(1<<15, 36)
	n := int64(len(as) + len(bs))
	pair := func(a, b rec) [2]int32 { return [2]int32{a.seq, b.seq} }
	for _, op := range []struct {
		name string
		run  func(hash func(uint64) uint64)
	}{
		{"Join", func(h func(uint64) uint64) { Join(as, bs, recKey, recKey, h, eqU64, pair, core.Config{}) }},
		{"SemiJoin", func(h func(uint64) uint64) { SemiJoin(as, bs, recKey, recKey, h, eqU64, core.Config{}) }},
		{"AntiJoin", func(h func(uint64) uint64) { AntiJoin(as, bs, recKey, recKey, h, eqU64, core.Config{}) }},
		{"JoinCount", func(h func(uint64) uint64) {
			JoinCount(as, nil, bs, nil, recKey, recKey, h, eqU64, false, false, core.Config{})
		}},
	} {
		var calls atomic.Int64
		op.run(countingHash(&calls))
		if got := calls.Load(); got != n {
			t.Errorf("%s: hash ran %d times for %d records across both relations, want exactly once per record",
				op.name, got, n)
		}
	}
}

func TestProbeAtMostOncePerRecordPerLevel(t *testing.T) {
	// All records share one key: the top level promotes it, absorbs every
	// record, and finishes in exactly one level — so the heavy table must
	// be probed exactly once per record, on both engine paths.
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
			var stats obs.CallStats
			cfg := core.Config{Stats: &stats}
			if got := Dedup(recs, recKey, hashMix, eqU64, cfg); len(got) != 1 || got[0].seq != 0 {
				t.Fatalf("dedup of one key: got %v", got)
			}
			if p := stats.ProbeCalls; p != int64(tc.n) {
				t.Errorf("Dedup probed %d times for %d records in a one-level call, want exactly %d", p, tc.n, tc.n)
			}
			stats = obs.CallStats{}
			if got := CountDistinct(recs, recKey, hashMix, eqU64, cfg); got != 1 {
				t.Fatalf("count of one key: got %d", got)
			}
			if p := stats.ProbeCalls; p != int64(tc.n) {
				t.Errorf("CountDistinct probed %d times, want exactly %d", p, tc.n)
			}
		})
	}
}

func TestJoinProbeAtMostOncePerRecordPerLevel(t *testing.T) {
	// Both relations share one key (too large for the min-side base-case
	// cutoff): one level promotes it, both sides absorb everything, and the
	// broadcast emits the full cross product — with exactly one probe per
	// record of either side.
	na, nb := 1<<17, 1<<15
	as := make([]rec, na)
	bs := make([]rec, nb)
	for i := range as {
		as[i] = rec{key: 3, seq: int32(i)}
	}
	for i := range bs {
		bs[i] = rec{key: 3, seq: int32(i)}
	}
	var stats obs.CallStats
	got := SemiJoin(as, bs, recKey, recKey, hashMix, eqU64, core.Config{Stats: &stats})
	if len(got) != na {
		t.Fatalf("semi of one shared key: got %d rows, want %d", len(got), na)
	}
	if p := stats.ProbeCalls; p != int64(na+nb) {
		t.Errorf("SemiJoin probed %d times for %d records in a one-level call, want exactly %d", p, na+nb, na+nb)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// Scheduling independence through the absorbing engines, the broadcast
	// offsets and the node-tree pack: fixed seed => identical output (same
	// rows in the same order) at any worker count.
	as := zipfRecs(1<<18, 1.2, 41)
	bs := uniformRecs(1<<16, 42)
	pair := func(a, b rec) [2]int32 { return [2]int32{a.seq, b.seq} }
	type outputs struct {
		dedup     []rec
		plane     []rec
		planeHash []uint64
		distinct  int64
		topk      []int64
		join      [][2]int32
		anti      []rec
		count     []collect.KV[uint64, int64]
	}
	var want *outputs
	for _, p := range []int{1, 3, 7} {
		rt := parallel.NewRuntime(p)
		defer rt.Close()
		cfg := core.Config{Runtime: rt, Seed: 9}
		got := &outputs{
			dedup:    Dedup(as, recKey, hashMix, eqU64, cfg),
			join:     Join(as, bs, recKey, recKey, hashMix, eqU64, pair, cfg),
			anti:     AntiJoin(as, bs, recKey, recKey, hashMix, eqU64, cfg),
			count:    JoinCount(as, nil, bs, nil, recKey, recKey, hashMix, eqU64, false, false, cfg),
			distinct: CountDistinct(as, recKey, hashMix, eqU64, cfg),
		}
		var hout *parallel.Buf[uint64]
		got.plane, hout = DedupPlane(as, nil, true, recKey, hashMix, eqU64, cfg)
		got.planeHash = append([]uint64(nil), hout.S...)
		hout.Release()
		for _, kv := range TopK(as, 20, recKey, hashMix, eqU64, cfg) {
			got.topk = append(got.topk, int64(kv.Key), kv.Value)
		}
		if want == nil {
			want = got
			continue
		}
		check := func(name string, eq bool) {
			if !eq {
				t.Fatalf("%s differs between 1 and %d workers", name, p)
			}
		}
		check("dedup", slicesEqual(got.dedup, want.dedup))
		check("topk", slicesEqual(got.topk, want.topk))
		check("join", slicesEqual(got.join, want.join))
		check("anti", slicesEqual(got.anti, want.anti))
		check("count", slicesEqual(got.count, want.count))
		check("CountDistinct", got.distinct == want.distinct)
		check("DedupPlane rows", slicesEqual(got.plane, want.plane))
		check("DedupPlane hashes", slicesEqual(got.planeHash, want.planeHash))
	}
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
