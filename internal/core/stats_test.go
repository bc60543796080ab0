package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
)

// These tests pin the stats-plane contract: the CallStats counters must
// agree with the engine's own exactly-once guarantees (hash-once per record,
// probe-at-most-once per record per level, digest-gated eq) and with the
// WithEqCounter test hook, which counts through the same funnel.

func zipfRecs(n int) []rec {
	keys := dist.Keys64(n, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, 7)
	in := make([]rec, n)
	for i := range in {
		in[i] = rec{key: keys[i], seq: i}
	}
	return in
}

func TestSortEqStatsContract(t *testing.T) {
	n := 1 << 18 // above SerialCutoff so the top level distributes in parallel
	in := zipfRecs(n)
	work := append([]rec(nil), in...)

	var stats obs.CallStats
	var ec atomic.Int64
	cfg := Config{Stats: &stats}.WithEqCounter(&ec)
	SortEq(work, keyOf, hashMix, eqU64, cfg)
	checkSemisorted(t, in, work)

	if stats.Levels == 0 {
		t.Fatal("no levels counted")
	}
	if stats.SerialLevels+stats.ParallelLevels != stats.Levels {
		t.Fatalf("serial(%d) + parallel(%d) != levels(%d)",
			stats.SerialLevels, stats.ParallelLevels, stats.Levels)
	}
	if stats.ParallelLevels == 0 {
		t.Fatalf("n = %d is above SerialCutoff, want a parallel level", n)
	}
	// Every record is classified at least once (the top level), and exactly
	// once per level it participates in.
	if stats.Classified < int64(n) {
		t.Fatalf("classified %d records, want >= %d", stats.Classified, n)
	}
	// The hash-once contract: SortEq computes exactly one user hash per
	// record (fused top-level classify + memoized sampling draws).
	if stats.HashCalls != int64(n) {
		t.Fatalf("HashCalls = %d, want exactly %d (hash-once)", stats.HashCalls, n)
	}
	// Classify probes the heavy table at most once per record it classifies.
	if stats.ProbeCalls > stats.Classified {
		t.Fatalf("ProbeCalls = %d exceeds the %d records classified", stats.ProbeCalls, stats.Classified)
	}
	// The eq counter and the contract-test hook share one funnel, so they
	// must agree to the call.
	if stats.EqCalls != ec.Load() {
		t.Fatalf("EqCalls = %d, eq hook counted %d", stats.EqCalls, ec.Load())
	}
	if stats.ProbeCalls == 0 {
		t.Fatal("zipfian input promoted no heavy keys to probe")
	}
	if stats.HeavyKeys == 0 {
		t.Fatal("zipfian input should promote heavy keys")
	}
	// The sorter scatters every record at every level (heavy records land in
	// final buckets), so the top level alone contributes n.
	if stats.Scattered < int64(n) {
		t.Fatalf("scattered %d records, want >= %d", stats.Scattered, n)
	}
	if stats.Absorbed != 0 {
		t.Fatalf("SortEq has no absorb sink, yet Absorbed = %d", stats.Absorbed)
	}
	if stats.BytesMoved < stats.Scattered*int64(16) { // rec is 16 bytes
		t.Fatalf("BytesMoved = %d, want >= records scattered * sizeof(rec)", stats.BytesMoved)
	}
	if stats.Leaves == 0 || stats.LeafRecords == 0 {
		t.Fatalf("no leaves counted (leaves=%d records=%d)", stats.Leaves, stats.LeafRecords)
	}
	if stats.PlanNS <= 0 || stats.DistributeNS <= 0 || stats.LeafNS <= 0 {
		t.Fatalf("phase timings not recorded: plan=%dns distribute=%dns leaf=%dns",
			stats.PlanNS, stats.DistributeNS, stats.LeafNS)
	}
}

func TestStatsAccumulateAcrossCalls(t *testing.T) {
	// Drain adds into the caller's CallStats, so one struct can batch calls.
	n := 1 << 12
	in := steadyInput(n)
	var stats obs.CallStats
	work := make([]rec, n)
	copy(work, in)
	SortEq(work, keyOf, hashMix, eqU64, Config{Stats: &stats})
	first := stats
	copy(work, in)
	SortEq(work, keyOf, hashMix, eqU64, Config{Stats: &stats})
	if stats.HashCalls != 2*first.HashCalls || stats.Classified != 2*first.Classified {
		t.Fatalf("second identical call did not double the counters: %+v vs first %+v", stats, first)
	}
}

func TestSortEqInPlaceStats(t *testing.T) {
	n := 1 << 15
	in := zipfRecs(n)
	work := append([]rec(nil), in...)
	var stats obs.CallStats
	SortEqInPlace(work, keyOf, hashMix, eqU64, Config{Stats: &stats})
	if stats.Levels == 0 {
		t.Fatal("no levels counted")
	}
	if stats.HashCalls != int64(n) {
		t.Fatalf("HashCalls = %d, want exactly %d (hash-once holds in place too)", stats.HashCalls, n)
	}
	if stats.Classified < int64(n) {
		t.Fatalf("classified %d records, want >= %d", stats.Classified, n)
	}
	// The cycle chase counts as the level's sweep: every record moved once.
	if stats.Scattered < int64(n) {
		t.Fatalf("scattered %d records, want >= %d (cycle chase)", stats.Scattered, n)
	}
	if stats.Leaves == 0 {
		t.Fatal("no in-place leaves counted")
	}
}

func TestSortLessStats(t *testing.T) {
	n := 1 << 16 // above alpha so at least one level distributes
	in := makeRecs(n, 1<<40, 11)
	work := append([]rec(nil), in...)
	var stats obs.CallStats
	SortLess(work, keyOf, hashMix, lessU64, Config{Stats: &stats})
	checkSemisorted(t, in, work)
	if stats.Levels == 0 || stats.Leaves == 0 {
		t.Fatalf("semisort< stats not counted: %+v", stats)
	}
}
