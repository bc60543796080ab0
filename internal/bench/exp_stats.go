package bench

import (
	"fmt"
	"io"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/rel"
)

// The stats table (`semibench -stats`): one instrumented call per steady
// cell shape, reporting the engine's own view of the work — levels planned
// and how they ran, classify/scatter/absorb volumes and bytes moved, the
// hash/probe/eq contract counters, the leaf counts, and per-phase wall time.
// Unlike the timing suite it runs each cell ONCE (counters are exact, not
// sampled, so rounds add nothing), and it is diffable PR against PR the way
// BENCH_steady.json is: a plan change shows up as a level/heavy-key shift
// long before it becomes a throughput regression.

// statsCell is one instrumented run: the cell name and its drained counters.
type statsCell struct {
	Name  string
	Stats obs.CallStats
}

// statsCells runs every 64-bit steady shape once with a CallStats armed.
func statsCells(o Options) []statsCell {
	o = o.WithDefaults()
	key := func(p P64) uint64 { return p.K }
	eq := func(x, y uint64) bool { return x == y }
	specs := steadySpecs(o)

	var cells []statsCell
	instrumented := func(name string, run func(cfg core.Config)) {
		var s obs.CallStats
		run(core.Config{Stats: &s})
		cells = append(cells, statsCell{Name: name, Stats: s})
	}

	for _, shape := range []string{"uniform-distinct", "zipf-0.8", "zipf-1.2", "exponential"} {
		spec := specs[shape]
		data := Make64(o.N, spec, o.Seed)
		work := make([]P64, o.N)
		instrumented("SortEq/"+shape, func(cfg core.Config) {
			copy(work, data)
			core.SortEq(work, key, hashutil.Mix64, eq, cfg)
		})
	}
	for _, shape := range []string{"uniform-distinct", "zipf-1.2"} {
		spec := specs[shape]
		data := Make64(o.N, spec, o.Seed)
		dim := Make64(o.N/8, dist.Spec{Kind: dist.Uniform, Param: float64(o.N)}, o.Seed+1)
		instrumented("Histogram/"+shape, func(cfg core.Config) {
			collect.Histogram(data, key, hashutil.Mix64, eq, cfg)
		})
		instrumented("CollectReduce/"+shape, func(cfg core.Config) {
			collect.Reduce(data, collect.Reducer[P64, uint64, uint64]{
				Key: key, Hash: hashutil.Mix64, Eq: eq,
				Map:     func(p P64) uint64 { return p.V },
				Combine: func(x, y uint64) uint64 { return x + y },
			}, cfg)
		})
		instrumented("Dedup/"+shape, func(cfg core.Config) {
			rel.Dedup(data, key, hashutil.Mix64, eq, cfg)
		})
		instrumented("JoinEq/"+shape, func(cfg core.Config) {
			rel.Join(data, dim, key, key, hashutil.Mix64, eq,
				func(a, b P64) P64 { return P64{K: a.K, V: a.V + b.V} }, cfg)
		})
		instrumented("CountDistinct/"+shape, func(cfg core.Config) {
			rel.CountDistinct(data, key, hashutil.Mix64, eq, cfg)
		})
		instrumented("TopK/"+shape, func(cfg core.Config) {
			rel.TopK(data, 10, key, hashutil.Mix64, eq, cfg)
		})
	}
	return cells
}

// StatsTable runs the instrumented suite and prints the per-cell CallStats
// table. Volumes are scaled per input record (classified can exceed 1.0 —
// one touch per level — while scattered below classified shows absorb and
// in-place wins), bytes to MB, and phase times to milliseconds.
func StatsTable(w io.Writer, o Options) {
	o = o.WithDefaults()
	fmt.Fprintf(w, "per-call engine stats, n=%d seed=%d (volumes per record, phases in ms)\n\n", o.N, o.Seed)
	t := NewTable("cell", "lvl", "ser/par", "clps", "heavy", "cls/r", "sct/r", "abs/r",
		"MBmoved", "hash/r", "probe/r", "eq/r", "leaves", "leafrec", "plan", "dist", "leaf")
	for _, c := range statsCells(o) {
		s, n := c.Stats, float64(o.N)
		t.Add(c.Name, s.Levels, fmt.Sprintf("%d/%d", s.SerialLevels, s.ParallelLevels),
			s.Collapsed, s.HeavyKeys,
			float64(s.Classified)/n, float64(s.Scattered)/n, float64(s.Absorbed)/n,
			float64(s.BytesMoved)/1e6,
			float64(s.HashCalls)/n, float64(s.ProbeCalls)/n, float64(s.EqCalls)/n,
			s.Leaves, s.LeafRecords,
			fmt.Sprintf("%.1f", float64(s.PlanNS)/1e6),
			fmt.Sprintf("%.1f", float64(s.DistributeNS)/1e6),
			fmt.Sprintf("%.1f", float64(s.LeafNS)/1e6))
	}
	t.Print(w)
}
