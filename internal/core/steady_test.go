package core

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// These tests pin the runtime-refactor contract: repeated SortEq calls on a
// shared runtime reuse the arena instead of allocating, and sharing one
// runtime across calls never breaks determinism.

// steadyInput builds a distinct-key workload (no heavy table, so the only
// per-call allocations left are a handful of escaping closures).
func steadyInput(n int) []rec {
	in := make([]rec, n)
	for i := range in {
		in[i] = rec{key: uint64(i) * 2654435761, seq: i}
	}
	return in
}

// TestSortEqSteadyStateAllocs holds distinct keys, Zipf 0.8 keys,
// exponential keys (mean n/64: a few heavy keys over a long tail of light
// ones) and 128-bit keys to a near-zero bound.
func TestSortEqSteadyStateAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	n := 1 << 16
	sortEq := func(in []rec) func() {
		work := make([]rec, n)
		return func() {
			copy(work, in)
			SortEq(work, keyOf, hashMix, eqU64, Config{})
		}
	}
	drawn := func(spec dist.Spec) []rec {
		keys := dist.Keys64(n, spec, 7)
		in := make([]rec, n)
		for i := range in {
			in[i] = rec{key: keys[i], seq: i}
		}
		return in
	}
	for name, run := range map[string]func(){
		"distinct":      sortEq(steadyInput(n)),
		"zipf-0.8":      sortEq(drawn(dist.Spec{Kind: dist.Zipfian, Param: 0.8})),
		"exponential":   sortEq(drawn(dist.Spec{Kind: dist.Exponential, Param: 64 / float64(n)})),
		"u128/uniform":  sortEq128(n, dist.Spec{Kind: dist.Uniform, Param: float64(n)}),
		"u128/zipf-1.2": sortEq128(n, dist.Spec{Kind: dist.Zipfian, Param: 1.2}),
	} {
		for i := 0; i < 5; i++ {
			run() // warm the arena
		}
		if allocs := testing.AllocsPerRun(20, run); allocs > 8 {
			t.Errorf("steady-state SortEq (%s) allocates %.0f objects/call, want near-zero (<= 8)", name, allocs)
		}
	}
}

func TestSortEqSteadyStateAllocsHeavyKeys(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	// Heavy inputs additionally build a (small, escaping) heavy table per
	// recursion level; everything else must still come from the arena.
	n := 1 << 16
	in := makeRecs(n, 50, 3)
	work := make([]rec, n)
	run := func() {
		copy(work, in)
		SortEq(work, keyOf, hashMix, eqU64, Config{})
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 32 {
		t.Fatalf("steady-state SortEq (heavy keys) allocates %.0f objects/call, want <= 32", allocs)
	}
}

func TestSortEqSteadyStateAllocsZipf(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	// Zipfian inputs build a heavy table per recursion level (plus collapsed
	// residue levels); with the tables and sample state pooled through the
	// arena, the whole skew path must stay within a few dozen allocations
	// per call (it was ~228/op before pooling).
	n := 1 << 16
	keys := dist.Keys64(n, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, 7)
	in := make([]rec, n)
	for i := range in {
		in[i] = rec{key: keys[i], seq: i}
	}
	work := make([]rec, n)
	run := func() {
		copy(work, in)
		SortEq(work, keyOf, hashMix, eqU64, Config{})
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 40 {
		t.Fatalf("steady-state SortEq (zipfian) allocates %.0f objects/call, want <= 40", allocs)
	}
}

// sortEq128 returns a repeated SortEq of n records with 128-bit keys drawn
// from spec.
func sortEq128(n int, spec dist.Spec) func() {
	type rec128 struct {
		key dist.U128
		seq int
	}
	keys := dist.Keys128(n, spec, 7)
	in, work := make([]rec128, n), make([]rec128, n)
	for i := range in {
		in[i] = rec128{key: keys[i], seq: i}
	}
	key := func(r rec128) dist.U128 { return r.key }
	hash := func(k dist.U128) uint64 { return hashutil.Mix128(k.Hi, k.Lo) }
	eq := func(a, b dist.U128) bool { return a == b }
	return func() {
		copy(work, in)
		SortEq(work, key, hash, eq, Config{})
	}
}

func TestExplicitRuntimeSharedAcrossCalls(t *testing.T) {
	// An explicitly created runtime must be usable for many calls and
	// produce output identical to the default runtime's (the runtime moves
	// work and buffers around, never values).
	rt := parallel.NewRuntime(4)
	in := makeRecs(120000, 64, 59)
	withRT := append([]rec(nil), in...)
	withDefault := append([]rec(nil), in...)
	SortEq(withRT, keyOf, hashMix, eqU64, Config{Seed: 3, Runtime: rt})
	SortEq(withDefault, keyOf, hashMix, eqU64, Config{Seed: 3})
	if !reflect.DeepEqual(withRT, withDefault) {
		t.Fatal("explicit runtime changed the output")
	}
	checkSemisorted(t, in, withRT)

	// Reuse the same runtime for a differently-shaped call (exercises arena
	// buffer growth and reuse paths).
	in2 := makeRecs(30000, 5, 61)
	out2 := append([]rec(nil), in2...)
	SortLess(out2, keyOf, hashMix, lessU64, Config{Runtime: rt})
	checkSemisorted(t, in2, out2)
}

func TestInPlaceSteadyStateAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	n := 1 << 15
	in := steadyInput(n)
	work := make([]rec, n)
	run := func() {
		copy(work, in)
		SortEqInPlace(work, keyOf, hashMix, eqU64, Config{})
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 8 {
		t.Fatalf("steady-state SortEqInPlace allocates %.0f objects/call, want <= 8", allocs)
	}
}

func TestStatsSteadyStateAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	// The stats plane's two-sided allocation contract: with WithStats
	// absent every touch point is a nil check, so the disabled path adds
	// exactly zero allocations over the pinned steady-state bounds above —
	// asserted differentially here — and the ARMED path is itself
	// alloc-free in steady state (the sink and its shards pool through the
	// arena; the drain writes into the caller's struct).
	n := 1 << 16
	in := makeRecs(n, 50, 3) // heavy keys: the most instrumented path
	work := make([]rec, n)
	var s obs.CallStats
	runOff := func() {
		copy(work, in)
		SortEq(work, keyOf, hashMix, eqU64, Config{})
	}
	runOn := func() {
		copy(work, in)
		SortEq(work, keyOf, hashMix, eqU64, Config{Stats: &s})
	}
	for i := 0; i < 5; i++ {
		runOff()
		runOn()
	}
	off := testing.AllocsPerRun(20, runOff)
	on := testing.AllocsPerRun(20, runOn)
	if on > off {
		t.Errorf("stats-armed SortEq allocates %.0f objects/call vs %.0f disabled; the armed path must be alloc-free in steady state", on, off)
	}
	if s.HashCalls == 0 {
		t.Error("armed runs drained no counters")
	}
}
