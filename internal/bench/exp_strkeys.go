package bench

import (
	"fmt"
	"io"
	"time"

	semisort "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/rel"
)

// RunStrKeys A/B-compares the two string-key paths end to end: the generic
// engines instantiated at K = string (the only option before the arena key
// plane: string headers move through every level, leaf comparisons chase
// heap pointers, keys re-extract at every eq site) against the
// length-prefixed arena path behind SortEqStr/DedupStr/JoinEqStr (keys
// materialized once, engines over an index/span plane, contiguous byte
// compares). Rounds interleave A and B and each side reports its minimum,
// so drift on a shared runner biases neither side; the sort cells' copy-in
// is measured separately and subtracted from both.
func RunStrKeys(w io.Writer, o Options) {
	o = o.WithDefaults()
	rounds := o.Rounds
	if rounds < 6 {
		rounds = 6
	}
	keyStr := func(p PStr) string { return p.K }
	hashStr := func(s string) uint64 { return hashutil.String(s) }
	eqStr := func(a, b string) bool { return a == b }
	joinF := func(a, b PStr) PStr { return PStr{K: a.K, V: a.V + b.V} }

	t := NewTable("op", "dist", "n", "generic-K=string ns", "arena ns", "speedup")
	for _, shape := range []struct {
		name string
		spec dist.Spec
	}{
		{"uniform-distinct", dist.Spec{Kind: dist.Uniform, Param: float64(o.N)}},
		{"zipf-1.2", dist.Spec{Kind: dist.Zipfian, Param: 1.2}},
	} {
		strSpec := dist.StrSpec{Spec: shape.spec, MinLen: 4, MaxLen: 28, Prefix: 12}
		data := MakeStr(o.N, strSpec, o.Seed)
		dim := MakeStr(o.N/8, dist.StrSpec{Spec: dist.Spec{Kind: dist.Uniform, Param: float64(o.N)},
			MinLen: strSpec.MinLen, MaxLen: strSpec.MaxLen, Prefix: strSpec.Prefix}, o.Seed+1)
		work := make([]PStr, o.N)
		copyIn := func() { parallel.Copy(work, data) }

		for _, op := range []struct {
			name     string
			old, new func()
			overhead func()
		}{
			{"SortEq", func() {
				copyIn()
				core.SortEq(work, keyStr, hashStr, eqStr, core.Config{})
			}, func() {
				copyIn()
				semisort.SortEqStr(work, keyStr)
			}, copyIn},
			{"Dedup", func() {
				rel.Dedup(data, keyStr, hashStr, eqStr, core.Config{})
			}, func() {
				semisort.DedupStr(data, keyStr)
			}, nil},
			{"JoinEq", func() {
				rel.Join(data, dim, keyStr, keyStr, hashStr, eqStr, joinF, core.Config{})
			}, func() {
				semisort.JoinEqStr(data, dim, keyStr, keyStr, joinF)
			}, nil},
			{"CountDistinct", func() {
				rel.CountDistinct(data, keyStr, hashStr, eqStr, core.Config{})
			}, func() {
				semisort.CountDistinctStr(data, keyStr)
			}, nil},
		} {
			op.old() // warm both paths' pooled state
			op.new()
			oldBest, newBest := time.Duration(1<<63-1), time.Duration(1<<63-1)
			sub := oldBest
			for r := 0; r < rounds; r++ {
				oldBest = min(oldBest, timeOnce(op.old))
				newBest = min(newBest, timeOnce(op.new))
				if op.overhead != nil {
					sub = min(sub, timeOnce(op.overhead))
				}
			}
			if op.overhead != nil {
				if oldBest > sub {
					oldBest -= sub
				}
				if newBest > sub {
					newBest -= sub
				}
			}
			t.Add(op.name, strSpec.String(), o.N,
				fmt.Sprintf("%d", oldBest.Nanoseconds()),
				fmt.Sprintf("%d", newBest.Nanoseconds()),
				fmt.Sprintf("%.2fx", float64(oldBest)/float64(newBest)))
		}
	}
	t.Print(w)
}

// timeOnce times a single invocation.
func timeOnce(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
