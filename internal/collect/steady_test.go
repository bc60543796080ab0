package collect

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/israce"
)

// The arena-backed output accumulation makes repeated Reduce calls
// allocate (near) nothing beyond the returned result slice: the working
// copy, the hash planes, the id planes and counting matrices, the heavy
// accumulators and tables, the combine-table scratch, the per-node output
// chunks and the node tree itself all come back from the runtime's arena.
// The forked implementation paid one []KV plus copies per recursion node —
// thousands of allocations at this size.

func steadyAllocBound(t *testing.T, name string, keys []uint64, bound float64) {
	t.Helper()
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	run := func() {
		Histogram(keys, ident, hashMix, eqU64, core.Config{})
	}
	for i := 0; i < 3; i++ {
		run() // warm the arena
	}
	// Every O(n) chunk sits in the arena's byte classes, which a GC keeps;
	// sync.Pool's victim cache keeps the small pooled objects (Buf handles,
	// tree nodes, leaf and heavy tables) through one GC inside a round.
	got := testing.AllocsPerRun(5, run)
	if got > bound {
		t.Errorf("%s: %v allocs/op in steady state, want <= %v", name, got, bound)
	}
}

func TestHistogramSteadyStateAllocs(t *testing.T) {
	n := 1 << 17 // above serialCutoff: the parallel engines run
	t.Run("distinct", func(t *testing.T) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)
		}
		// The result slice itself (n distinct keys, one make) plus pooled
		// residue: closures, job descriptors, chunk growth leftovers.
		steadyAllocBound(t, "distinct", keys, 100)
	})
	t.Run("zipf-1.2", func(t *testing.T) {
		keys := dist.Keys64(n, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, 3)
		// Skewed inputs add per-level closures and heavy-result chunks;
		// heavy tables and accumulators are pooled.
		steadyAllocBound(t, "zipf-1.2", keys, 160)
	})
}
