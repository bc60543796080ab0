package semisort_test

import (
	"fmt"
	"runtime"
	"testing"

	semisort "repro"
)

// TestCallStatsAccounting enforces the stats plane's accounting identities
// on every op built on the distribution driver — uniform and Zipf-1.2 keys,
// below and above the serial cutoff, at GOMAXPROCS 1 and 2:
//
//   - every classified record was either scattered or absorbed;
//   - the user hash ran exactly once per input record (both join sides);
//   - bytes moved are the scattered 16-byte records plus their carried
//     8-byte hashes: exactly 24 per scattered record for the absorbing ops,
//     whose survivors all carry their hash, and 16 to 24 for SortEq, whose
//     heavy buckets are final and carry none.
func TestCallStatsAccounting(t *testing.T) {
	key, h := clickUser, semisort.Hash64
	sum := func(st []semisort.StageStats) (s semisort.CallStats) {
		for _, x := range st {
			s.Add(x.Stats)
		}
		return s
	}
	ops := []struct {
		name string
		join bool // the dimension side is hashed too
		// call runs the op; a pipeline returns its per-stage stats.
		call func(a, dim []click, o []semisort.Option) []semisort.StageStats
	}{
		{"SortEq", false, func(a, _ []click, o []semisort.Option) []semisort.StageStats {
			semisort.SortEq(append([]click(nil), a...), key, h, eqID, o...)
			return nil
		}},
		{"Histogram", false, func(a, _ []click, o []semisort.Option) []semisort.StageStats {
			semisort.Histogram(a, key, h, eqID, o...)
			return nil
		}},
		{"CollectReduce", false, func(a, _ []click, o []semisort.Option) []semisort.StageStats {
			semisort.CollectReduce(a, key, h, eqID, func(c click) int { return c.Seq },
				func(x, y int) int { return x + y }, 0, o...)
			return nil
		}},
		{"Dedup", false, func(a, _ []click, o []semisort.Option) []semisort.StageStats {
			semisort.Dedup(a, key, h, eqID, o...)
			return nil
		}},
		{"CountDistinct", false, func(a, _ []click, o []semisort.Option) []semisort.StageStats {
			semisort.CountDistinct(a, key, h, eqID, o...)
			return nil
		}},
		{"TopK", false, func(a, _ []click, o []semisort.Option) []semisort.StageStats {
			semisort.TopK(a, 10, key, h, eqID, o...)
			return nil
		}},
		{"JoinEq", true, func(a, dim []click, o []semisort.Option) []semisort.StageStats {
			semisort.JoinEq(a, dim, key, key, h, eqID, func(x, y click) int { return x.Seq + y.Seq }, o...)
			return nil
		}},
		{"Query.Dedup.JoinEq.TopK", true, func(a, dim []click, o []semisort.Option) []semisort.StageStats {
			p := semisort.Query(a, key, h, eqID, o...).Dedup().JoinEq(dim, key)
			p.TopK(10)
			return p.Stats()
		}},
	}
	for _, n := range []int{5000, 1 << 17} {
		dim := make([]click, n/8)
		for j := range dim {
			dim[j] = click{User: uint64(8*j + 1), Seq: j}
		}
		for _, in := range []struct {
			name string
			a    []click
		}{{"uniform", pipelineData(n, n, 11)}, {"zipf-1.2", pipelineZipf(n, 12)}} {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/n=%d/procs=%d", in.name, n, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					rt := semisort.NewRuntime(procs)
					defer rt.Close()
					for _, op := range ops {
						var s semisort.CallStats
						if st := op.call(in.a, dim, []semisort.Option{semisort.WithRuntime(rt), semisort.WithStats(&s)}); st != nil {
							s = sum(st)
						}
						hashes := int64(len(in.a))
						if op.join {
							hashes += int64(len(dim))
						}
						if s.Scattered+s.Absorbed != s.Classified {
							t.Errorf("%s: Scattered %d + Absorbed %d != Classified %d", op.name, s.Scattered, s.Absorbed, s.Classified)
						}
						if s.HashCalls != hashes {
							t.Errorf("%s: HashCalls = %d, want %d", op.name, s.HashCalls, hashes)
						}
						lo := 24 * s.Scattered
						if op.name == "SortEq" {
							lo = 16 * s.Scattered
						}
						if s.BytesMoved < lo || s.BytesMoved > 24*s.Scattered {
							t.Errorf("%s: BytesMoved = %d for %d scattered records, want [%d, %d]",
								op.name, s.BytesMoved, s.Scattered, lo, 24*s.Scattered)
						}
					}
				})
			}
		}
	}
}
