package semisort_test

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	semisort "repro"
)

// The public WithStats surface: a single op call fills a CallStats whose
// counters agree with the engine's hash-once contract, and a pipeline with
// the same option additionally records per-stage stats whose sum is the
// caller's total.

func TestWithStatsSortEq(t *testing.T) {
	const n = 1 << 17
	a := pipelineZipf(n, 41)

	var hashes atomic.Int64
	countingHash := func(u uint64) uint64 {
		hashes.Add(1)
		return semisort.Hash64(u)
	}

	var s semisort.CallStats
	semisort.SortEq(a, clickUser, countingHash, eqID, semisort.WithStats(&s))

	if s.Levels < 1 {
		t.Fatalf("Levels = %d, want >= 1", s.Levels)
	}
	if s.SerialLevels+s.ParallelLevels != s.Levels {
		t.Fatalf("serial %d + parallel %d != levels %d", s.SerialLevels, s.ParallelLevels, s.Levels)
	}
	if s.Classified < n {
		t.Fatalf("Classified = %d, want >= %d (every record classified at level 0)", s.Classified, n)
	}
	if s.Scattered < 1 {
		t.Fatalf("Scattered = %d, want >= 1", s.Scattered)
	}
	if s.BytesMoved < s.Scattered*16 { // 16-byte click + carried hash
		t.Fatalf("BytesMoved = %d for %d scattered records", s.BytesMoved, s.Scattered)
	}
	// The hash-once contract, cross-checked against the user closure itself.
	if s.HashCalls != int64(n) {
		t.Fatalf("HashCalls = %d, want exactly %d (hash-once)", s.HashCalls, n)
	}
	if got := hashes.Load(); got != s.HashCalls {
		t.Fatalf("stats report %d hash calls, closure saw %d", s.HashCalls, got)
	}
	// A zipf input must promote heavy keys somewhere in the tree.
	if s.HeavyKeys < 1 {
		t.Fatalf("HeavyKeys = %d on a zipf input, want >= 1", s.HeavyKeys)
	}
	if s.ProbeCalls < 1 {
		t.Fatalf("ProbeCalls = %d with a populated heavy table, want >= 1", s.ProbeCalls)
	}
	if s.Leaves < 1 || s.LeafRecords < 1 {
		t.Fatalf("leaf mix empty: leaves=%d records=%d", s.Leaves, s.LeafRecords)
	}
	if s.PlanNS <= 0 || s.DistributeNS <= 0 || s.LeafNS <= 0 {
		t.Fatalf("phase times not all positive: plan=%d distribute=%d leaf=%d",
			s.PlanNS, s.DistributeNS, s.LeafNS)
	}
}

func TestWithStatsDedup(t *testing.T) {
	a := pipelineZipf(1<<16, 42)
	var s semisort.CallStats
	out := semisort.Dedup(a, clickUser, semisort.Hash64, eqID, semisort.WithStats(&s))
	if len(out) == 0 || len(out) >= len(a) {
		t.Fatalf("dedup kept %d of %d", len(out), len(a))
	}
	if s.HashCalls != int64(len(a)) {
		t.Fatalf("HashCalls = %d, want %d", s.HashCalls, len(a))
	}
	if s.Classified < int64(len(a)) || s.Levels < 1 {
		t.Fatalf("dedup stats empty: levels=%d classified=%d", s.Levels, s.Classified)
	}
}

func TestWithStatsPipelineStages(t *testing.T) {
	a := pipelineZipf(1<<16, 43)
	var total semisort.CallStats
	p := semisort.Query(a, clickUser, semisort.Hash64, eqID, semisort.WithStats(&total))
	out := p.Dedup().Sort().Run()
	if len(out) == 0 {
		t.Fatal("pipeline produced no output")
	}

	stages := p.Stats()
	if len(stages) == 0 {
		t.Fatal("Stats() empty on a WithStats pipeline")
	}
	ops := make([]string, len(stages))
	var sum semisort.CallStats
	for i, st := range stages {
		ops[i] = st.Op
		sum.Add(st.Stats)
	}
	if ops[0] != "Dedup" {
		t.Fatalf("stage ops = %v, want Dedup first", ops)
	}
	if sum != total {
		t.Fatalf("per-stage sum %+v != total %+v", sum, total)
	}
	// The fused chain hashes each input record at most once overall; the
	// Dedup stage carries the hash plane forward, so only the first stage
	// reports user hash calls.
	if total.HashCalls != int64(len(a)) {
		t.Fatalf("pipeline HashCalls = %d, want %d (hash once per input record)",
			total.HashCalls, len(a))
	}
	for _, st := range stages[1:] {
		if st.Stats.HashCalls != 0 {
			t.Fatalf("stage %s re-hashed %d records", st.Op, st.Stats.HashCalls)
		}
	}

	// A string pipeline records its stages the same way over its span
	// plane: the Dedup folds into the counting join, and the join's and
	// the terminal's entries sum to the total.
	evs := strCorpus(rand.New(rand.NewSource(45)), 30000, 2000)
	var strTotal semisort.CallStats
	jp := semisort.QueryStr(evs[:20000], eventURL, semisort.WithStats(&strTotal)).
		Dedup().JoinEq(evs[20000:], eventURL)
	if top := jp.TopK(5); len(top) != 5 {
		t.Fatalf("string pipeline TopK(5) returned %d keys", len(top))
	}
	strStages := jp.Stats()
	strOps := make([]string, len(strStages))
	var strSum semisort.CallStats
	for i, st := range strStages {
		strOps[i] = st.Op
		strSum.Add(st.Stats)
	}
	if !slices.Equal(strOps, []string{"JoinEq", "TopK"}) {
		t.Fatalf("string pipeline stage ops = %v, want [JoinEq TopK]", strOps)
	}
	if strSum != strTotal {
		t.Fatalf("string pipeline per-stage sum %+v != total %+v", strSum, strTotal)
	}
	if strTotal.Classified < int64(len(evs)) {
		t.Fatalf("string pipeline Classified = %d, want >= %d (both sides classified)", strTotal.Classified, len(evs))
	}
}

func TestWithStatsPipelineUnarmed(t *testing.T) {
	a := pipelineData(1000, 100, 44)
	p := semisort.Query(a, clickUser, semisort.Hash64, eqID)
	p.Dedup().Run()
	if got := p.Stats(); got != nil {
		t.Fatalf("Stats() on an unarmed pipeline = %v, want nil", got)
	}
}
