package collect

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// These tests pin the contracts histogram/collect-reduce inherit from the
// shared distribution driver: the user hash closure runs exactly once per
// record per call, Map runs exactly once per record, the heavy table is
// probed at most once per record per level, Config.DisableHeavy is honored,
// and input-order stability survives the absorbing heavy path (so
// non-commutative monoids work) — all under the same counting-closure and
// counting-probe hooks the sorter's contract tests use.

type crec struct {
	key uint64
	seq int32
}

func countingReducer(mapped *atomic.Int64) (key func(crec) uint64, hash func(uint64) uint64, mapf func(crec) int64, keyCalls, hashCalls *atomic.Int64) {
	keyCalls, hashCalls = new(atomic.Int64), new(atomic.Int64)
	key = func(r crec) uint64 { keyCalls.Add(1); return r.key }
	hash = func(k uint64) uint64 { hashCalls.Add(1); return hashMix(k) }
	mapf = func(r crec) int64 { mapped.Add(1); return 1 }
	return
}

func zipfRecs(n int, s float64, seed uint64) []crec {
	keys := dist.Keys64(n, dist.Spec{Kind: dist.Zipfian, Param: s}, seed)
	recs := make([]crec, n)
	for i, k := range keys {
		recs[i] = crec{key: k, seq: int32(i)}
	}
	return recs
}

func distinctRecs(n int) []crec {
	recs := make([]crec, n)
	for i := range recs {
		recs[i] = crec{key: uint64(i)*2654435761 + 7, seq: int32(i)}
	}
	return recs
}

// refReduce computes the expected per-key record sequence.
func refSeqs(recs []crec) map[uint64][]int32 {
	want := make(map[uint64][]int32)
	for _, r := range recs {
		want[r.key] = append(want[r.key], r.seq)
	}
	return want
}

func TestReduceClosuresOncePerRecordDistinct(t *testing.T) {
	// Distinct keys (hashMix is a bijection, so no hash collisions): the
	// hash closure, Map, and Combine must each run exactly n times — the
	// fused top level hashes every unsampled record once, the memoizing
	// sampler covers the sampled ones, deeper levels and the combine-table
	// base case consume the carried hash plane. n > serialCutoff exercises
	// the parallel counting+scatter path.
	n := serialCutoff + (1 << 14)
	recs := distinctRecs(n)
	var mapped, combines atomic.Int64
	key, hash, mapf, _, hashCalls := countingReducer(&mapped)
	got := Reduce(recs, Reducer[crec, uint64, int64]{
		Key: key, Hash: hash, Eq: eqU64,
		Map:     mapf,
		Combine: func(x, y int64) int64 { combines.Add(1); return x + y },
	}, core.Config{})
	if got64 := hashCalls.Load(); got64 != int64(n) {
		t.Fatalf("hash closure ran %d times for %d records, want exactly once per record", got64, n)
	}
	if got64 := mapped.Load(); got64 != int64(n) {
		t.Fatalf("Map ran %d times for %d records, want exactly once per record", got64, n)
	}
	// Distinct keys: every record is combined into its key's identity
	// exactly once and nothing else is ever combined.
	if got64 := combines.Load(); got64 != int64(n) {
		t.Fatalf("Combine ran %d times for %d distinct records, want exactly once per record", got64, n)
	}
	if len(got) != n {
		t.Fatalf("distinct keys: got %d results, want %d", len(got), n)
	}
}

func TestHistogramHashOncePerRecordAllVariants(t *testing.T) {
	// Skew (heavy keys, eq-driven key re-extraction) must not change the
	// hash count: the closure has no call site outside the fused classify
	// sweep, the memoizing sampler, and the small-input HashAll.
	for _, tc := range []struct {
		name string
		recs []crec
	}{
		{"zipf-1.2-parallel", zipfRecs(serialCutoff+1234, 1.2, 7)},
		{"zipf-1.2-serial", zipfRecs(1<<15, 1.2, 8)},
		{"one-key", func() []crec {
			recs := make([]crec, 1<<15)
			for i := range recs {
				recs[i] = crec{key: 5, seq: int32(i)}
			}
			return recs
		}()},
		{"tiny-base-case-only", zipfRecs(1000, 1.2, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.recs)
			var mapped atomic.Int64
			key, hash, mapf, _, hashCalls := countingReducer(&mapped)
			got := Reduce(tc.recs, Reducer[crec, uint64, int64]{
				Key: key, Hash: hash, Eq: eqU64,
				Map:     mapf,
				Combine: func(x, y int64) int64 { return x + y },
			}, core.Config{})
			if got64 := hashCalls.Load(); got64 != int64(n) {
				t.Fatalf("hash closure ran %d times for %d records, want exactly %d", got64, n, n)
			}
			if got64 := mapped.Load(); got64 != int64(n) {
				t.Fatalf("Map ran %d times for %d records, want exactly %d", got64, n, n)
			}
			var total int64
			for _, kv := range got {
				total += kv.Value
			}
			if total != int64(n) {
				t.Fatalf("counts sum to %d, want %d", total, n)
			}
		})
	}
}

func TestCollectProbeAtMostOncePerRecordPerLevel(t *testing.T) {
	// All records share one key: the top level promotes it, absorbs every
	// record into the per-subarray accumulators, and finishes in exactly
	// one level — so the heavy table must be probed exactly once per
	// record. The shared id-plane classify guarantees it structurally; a
	// count+scatter double probe would show up as 2n.
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"parallel", serialCutoff + (1 << 14)},
		{"serial", 1 << 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := make([]crec, tc.n)
			for i := range recs {
				recs[i] = crec{key: 7, seq: int32(i)}
			}
			var stats obs.CallStats
			got := Histogram(recs, func(r crec) uint64 { return r.key }, hashMix, eqU64,
				core.Config{Stats: &stats})
			if p := stats.ProbeCalls; p != int64(tc.n) {
				t.Fatalf("heavy table probed %d times for %d records in a one-level reduce, want exactly %d", p, tc.n, tc.n)
			}
			if len(got) != 1 || got[0].Value != int64(tc.n) {
				t.Fatalf("histogram wrong: %v", got)
			}
		})
	}
}

func TestCollectProbeCountMixedHotAndDistinct(t *testing.T) {
	// Half the records carry 10 hot keys (heavy at the top level), half are
	// distinct. With default parameters every light bucket lands under the
	// base-case threshold, so the top level is the only one that probes:
	// exactly n probes despite duplicates forcing eq work.
	n := 1 << 17
	recs := make([]crec, n)
	for i := range recs {
		if i%2 == 0 {
			recs[i] = crec{key: uint64(i % 10), seq: int32(i)}
		} else {
			recs[i] = crec{key: 1000 + uint64(i)*2654435761, seq: int32(i)}
		}
	}
	var stats obs.CallStats
	got := Histogram(recs, func(r crec) uint64 { return r.key }, hashMix, eqU64,
		core.Config{Stats: &stats})
	if p := stats.ProbeCalls; p != int64(n) {
		t.Fatalf("heavy table probed %d times for %d records, want exactly %d (one probing level)", p, n, n)
	}
	want := refSeqs(recs)
	if len(got) != len(want) {
		t.Fatalf("distinct keys: got %d want %d", len(got), len(want))
	}
	for _, kv := range got {
		if int64(len(want[kv.Key])) != kv.Value {
			t.Fatalf("key %d: got %d want %d", kv.Key, kv.Value, len(want[kv.Key]))
		}
	}
}

func TestCollectDisableHeavy(t *testing.T) {
	// DisableHeavy must be honored by the collect path: no sampling, no
	// heavy table, zero probes — and the result still correct on a heavily
	// skewed input (every key splits down to base cases).
	recs := zipfRecs(1<<16+999, 1.2, 11)
	var stats obs.CallStats
	cfg := core.Config{DisableHeavy: true, Stats: &stats}
	got := Histogram(recs, func(r crec) uint64 { return r.key }, hashMix, eqU64, cfg)
	if p := stats.ProbeCalls; p != 0 {
		t.Fatalf("DisableHeavy reduce still probed a heavy table %d times", p)
	}
	want := refSeqs(recs)
	if len(got) != len(want) {
		t.Fatalf("distinct keys: got %d want %d", len(got), len(want))
	}
	for _, kv := range got {
		if int64(len(want[kv.Key])) != kv.Value {
			t.Fatalf("key %d: got %d want %d", kv.Key, kv.Value, len(want[kv.Key]))
		}
	}
}

func TestReduceNonCommutativeZipfSkew(t *testing.T) {
	// Input-order stability through the absorbing heavy path, pinned with a
	// non-commutative monoid under zipf-1.2 skew at a size that takes the
	// parallel absorb engine: per-subarray accumulation in input order +
	// subarray-order partial combining must reproduce exact input order for
	// every key, heavy or light.
	n := serialCutoff + 4096
	recs := zipfRecs(n, 1.2, 13)
	got := Reduce(recs, Reducer[crec, uint64, []int32]{
		Key:  func(r crec) uint64 { return r.key },
		Hash: hashMix,
		Eq:   eqU64,
		Map:  func(r crec) []int32 { return []int32{r.seq} },
		Combine: func(a, b []int32) []int32 {
			return append(append([]int32(nil), a...), b...)
		},
	}, core.Config{})
	want := refSeqs(recs)
	if len(got) != len(want) {
		t.Fatalf("distinct keys: got %d want %d", len(got), len(want))
	}
	for _, kv := range got {
		w := want[kv.Key]
		if len(w) != len(kv.Value) {
			t.Fatalf("key %d: got %d entries want %d", kv.Key, len(kv.Value), len(w))
		}
		for i := range w {
			if w[i] != kv.Value[i] {
				t.Fatalf("key %d: combine order broken at %d: got %d want %d (non-commutative monoid)",
					kv.Key, i, kv.Value[i], w[i])
			}
		}
	}
}

func TestReduceNonCommutativeStringConcat(t *testing.T) {
	// The satellite's literal shape: string concatenation (associative,
	// non-commutative) under skew, small enough that quadratic concat cost
	// stays trivial but large enough to promote heavy keys.
	n := 30000
	recs := zipfRecs(n, 1.2, 17)
	digits := "0123456789"
	got := Reduce(recs, Reducer[crec, uint64, string]{
		Key:  func(r crec) uint64 { return r.key },
		Hash: hashMix,
		Eq:   eqU64,
		Map:  func(r crec) string { return string(digits[int(r.seq)%10]) },
		Combine: func(a, b string) string {
			return a + b
		},
	}, core.Config{})
	want := make(map[uint64][]byte)
	for _, r := range recs {
		want[r.key] = append(want[r.key], digits[int(r.seq)%10])
	}
	if len(got) != len(want) {
		t.Fatalf("distinct keys: got %d want %d", len(got), len(want))
	}
	for _, kv := range got {
		if string(want[kv.Key]) != kv.Value {
			t.Fatalf("key %d: concat order broken: got %q want %q", kv.Key, kv.Value, want[kv.Key])
		}
	}
}

func TestHistogramDeterministicAcrossWorkerCounts(t *testing.T) {
	// Scheduling independence through the absorbing engines and the node
	// tree: fixed seed => identical output at any worker count.
	keys := dist.Keys64(1<<18, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, 5)
	var want []KV[uint64, int64]
	for _, p := range []int{1, 3, 7} {
		rt := parallel.NewRuntime(p)
		defer rt.Close()
		got := Histogram(keys, ident, hashMix, eqU64, core.Config{Runtime: rt, Seed: 9})
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d: %d results vs %d at p=1", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: output differs at %d: %v vs %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestReduceFloatSumIndependentOfWorkers(t *testing.T) {
	// A floating-point sum is associative only up to rounding, so its bits
	// expose the association tree of the heavy partials. That tree must be
	// a function of the input alone: identical at every GOMAXPROCS and on
	// runtimes of any size.
	n := 1 << 18
	keys := dist.Keys64(n, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, 11)
	rng := rand.New(rand.NewSource(12))
	recs := make([]fkv, n)
	for i, k := range keys {
		recs[i] = fkv{key: k, v: math.Ldexp(rng.Float64(), rng.Intn(60)-30)}
	}
	rd := Reducer[fkv, uint64, float64]{
		Key:     func(r fkv) uint64 { return r.key },
		Hash:    hashMix,
		Eq:      eqU64,
		Map:     func(r fkv) float64 { return r.v },
		Combine: func(a, b float64) float64 { return a + b },
	}
	var want []KV[uint64, float64]
	check := func(name string, cfg core.Config) {
		t.Helper()
		cfg.Seed = 9
		got := Reduce(recs, rd, cfg)
		if want == nil {
			want = got
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results vs %d", name, len(got), len(want))
		}
		diff := 0
		for i := range want {
			if got[i].Key != want[i].Key || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
				diff++
			}
		}
		if diff > 0 {
			t.Errorf("%s: %d of %d per-key sums differ bitwise from the first run", name, diff, len(want))
		}
	}
	prev := runtime.GOMAXPROCS(1)
	check("GOMAXPROCS=1", core.Config{})
	runtime.GOMAXPROCS(2)
	check("GOMAXPROCS=2", core.Config{})
	runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 3, 7} {
		rt := parallel.NewRuntime(p)
		check(fmt.Sprintf("runtime of %d workers", p), core.Config{Runtime: rt})
		rt.Close()
	}
}

type fkv struct {
	key uint64
	v   float64
}
