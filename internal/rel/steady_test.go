package rel

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/israce"
	"repro/internal/obs"
)

// The relational ops inherit the driver's arena discipline: hash planes, id
// planes and counting matrices, survivor buffers, heavy tables, first-keep
// matrices, heavy index logs, base-case tables, the node tree and its
// chunks are all pooled, so repeated calls allocate little beyond the
// result slice in steady state.

func steadyAllocBound(t *testing.T, name string, run func(), bound float64) {
	t.Helper()
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	for i := 0; i < 3; i++ {
		run() // warm the arena
	}
	// Every O(n) chunk, the join's probe chunks included, sits in the
	// arena's byte classes, which a GC keeps; sync.Pool's victim cache
	// keeps the small pooled objects (Buf handles, tree nodes, leaf tables)
	// through one GC inside a round.
	got := testing.AllocsPerRun(5, run)
	if got > bound {
		t.Errorf("%s: %v allocs/op in steady state, want <= %v", name, got, bound)
	}
}

func TestRelSteadyStateAllocs(t *testing.T) {
	n := 1 << 17 // above core.SerialCutoff: the parallel engines run
	uni := uniformRecs(n, 51)
	zipf := zipfRecs(n, 1.2, 52)
	bs := uniformRecs(n/8, 53)
	pair := func(a, b rec) [2]int32 { return [2]int32{a.seq, b.seq} }
	// Bounds follow collect's: the result slice plus pooled residue
	// (closures, job descriptors, chunk-growth leftovers); skewed inputs
	// add per-level closures and heavy chunks.
	steadyAllocBound(t, "Dedup/uniform", func() {
		Dedup(uni, recKey, hashMix, eqU64, core.Config{})
	}, 60)
	steadyAllocBound(t, "Dedup/zipf-1.2", func() {
		Dedup(zipf, recKey, hashMix, eqU64, core.Config{})
	}, 60)
	steadyAllocBound(t, "CountDistinct/uniform", func() {
		CountDistinct(uni, recKey, hashMix, eqU64, core.Config{})
	}, 40)
	steadyAllocBound(t, "CountDistinct/zipf-1.2", func() {
		CountDistinct(zipf, recKey, hashMix, eqU64, core.Config{})
	}, 40)
	steadyAllocBound(t, "Join/uniform", func() {
		Join(uni, bs, recKey, recKey, hashMix, eqU64, pair, core.Config{})
	}, 50)
	steadyAllocBound(t, "Join/zipf-1.2", func() {
		Join(zipf, bs, recKey, recKey, hashMix, eqU64, pair, core.Config{})
	}, 70)
	steadyAllocBound(t, "SemiJoin/zipf-1.2", func() {
		SemiJoin(zipf, bs, recKey, recKey, hashMix, eqU64, core.Config{})
	}, 90)
	// TopK's histogram materializes the distinct keys internally; the
	// bound covers that slice, the candidate merge and the result.
	steadyAllocBound(t, "TopK/uniform", func() {
		TopK(uni, 10, recKey, hashMix, eqU64, core.Config{})
	}, 80)
	steadyAllocBound(t, "TopK/zipf-1.2", func() {
		TopK(zipf, 10, recKey, hashMix, eqU64, core.Config{})
	}, 80)
	// 128-bit keys: wider records and Mix128 through the same engines.
	uni128, zipf128, bs128 := recs128(uni), recs128(zipf), recs128(bs)
	pair128 := func(a, b rec128) [2]int32 { return [2]int32{a.seq, b.seq} }
	steadyAllocBound(t, "Dedup/u128/uniform", func() {
		Dedup(uni128, rec128Key, hash128, eq128, core.Config{})
	}, 60)
	steadyAllocBound(t, "Dedup/u128/zipf-1.2", func() {
		Dedup(zipf128, rec128Key, hash128, eq128, core.Config{})
	}, 60)
	steadyAllocBound(t, "Join/u128/uniform", func() {
		Join(uni128, bs128, rec128Key, rec128Key, hash128, eq128, pair128, core.Config{})
	}, 50)
	steadyAllocBound(t, "Join/u128/zipf-1.2", func() {
		Join(zipf128, bs128, rec128Key, rec128Key, hash128, eq128, pair128, core.Config{})
	}, 70)
}

// rec128 is rec at 128-bit key width: the u64 key widened so both halves
// vary, with the distribution of the source records.
type rec128 struct {
	key dist.U128
	seq int32
}

func recs128(a []rec) []rec128 {
	out := make([]rec128, len(a))
	for i, r := range a {
		out[i] = rec128{key: dist.U128{Hi: r.key * 0x9e3779b97f4a7c15, Lo: r.key}, seq: r.seq}
	}
	return out
}

func rec128Key(r rec128) dist.U128 { return r.key }
func hash128(k dist.U128) uint64   { return hashutil.Mix128(k.Hi, k.Lo) }
func eq128(a, b dist.U128) bool    { return a == b }

// TestJoinSteadyAllocsSizeIndependent pins the heavy-carry-over log's O(1)
// steady behavior: the carry log is a chain of pooled fixed-stride pages,
// so a skewed join's allocations must not scale with n — the same constant
// bound holds across a 4x size change (before the page pool, a zipf join's
// allocs grew with its heavy-hit count: 99 at 2^17, 262 at 2^19). The bound
// carries headroom over the ~34 measured because a GC pass during the run
// evicts pool contents and the refills count as allocations.
func TestJoinSteadyAllocsSizeIndependent(t *testing.T) {
	pair := func(a, b rec) [2]int32 { return [2]int32{a.seq, b.seq} }
	for _, n := range []int{1 << 17, 1 << 19} {
		zipf := zipfRecs(n, 1.2, 52)
		bs := uniformRecs(n/8, 53)
		steadyAllocBound(t, "Join/zipf-1.2", func() {
			Join(zipf, bs, recKey, recKey, hashMix, eqU64, pair, core.Config{})
		}, 90)
	}
}

// TestJoinProbeChunksSurviveGC pins that the join's probe grows its row
// chunks inside the arena's byte classes: a zipf-1.2 Join at 2^17 after two
// GCs re-makes only the sync.Pool side — Buf handles, tree nodes, leaf
// tables, about 2,300 objects — and not its row chunks. When the chunks
// grew by append they lived on sync.Pool too, and the same call re-made
// about 8,300 objects.
func TestJoinProbeChunksSurviveGC(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	pair := func(a, b rec) [2]int32 { return [2]int32{a.seq, b.seq} }
	zipf := zipfRecs(1<<17, 1.2, 52)
	bs := uniformRecs(1<<14, 53)
	run := func() { Join(zipf, bs, recKey, recKey, hashMix, eqU64, pair, core.Config{}) }
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	if got := m1.Mallocs - m0.Mallocs; got > 4000 {
		t.Errorf("Join/zipf-1.2 after two GCs: %d allocations, want at most 4000", got)
	}
}

func TestRelStatsSteadyStateAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	// Differential form of the stats plane's allocation contract for the
	// relational terminals: arming WithStats must add zero steady-state
	// allocations over the bounds pinned above (sink, shards and the eq
	// tap all pool through the arena), and leaving it off is pure nil
	// checks — also zero.
	n := 1 << 17
	zipf := zipfRecs(n, 1.2, 57)
	var s obs.CallStats
	runOff := func() { Dedup(zipf, recKey, hashMix, eqU64, core.Config{}) }
	runOn := func() { Dedup(zipf, recKey, hashMix, eqU64, core.Config{Stats: &s}) }
	for i := 0; i < 3; i++ {
		runOff()
		runOn()
	}
	off := testing.AllocsPerRun(5, runOff)
	on := testing.AllocsPerRun(5, runOn)
	// GC passes during a run evict pool contents and refills count as
	// allocations, so allow the same small jitter the absolute bounds do.
	if on > off+4 {
		t.Errorf("stats-armed Dedup allocates %.0f objects/call vs %.0f disabled, want equal", on, off)
	}
	if s.Leaves == 0 || s.HashCalls == 0 {
		t.Error("armed runs drained no counters")
	}
}
