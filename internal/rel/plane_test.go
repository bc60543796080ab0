package rel

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// The pipeline entry points: an input plane's cached hashes replace every
// user hash call, its carried heavy keys replace the level-0 sampling
// round, and an emitted plane's hashes are the output records' own.

func TestDedupPlaneEmitsOutputHashes(t *testing.T) {
	for _, p := range []int{1, 2} {
		rt := parallel.NewRuntime(p)
		for name, recs := range testShapes(t) {
			out, hout := DedupPlane(recs, nil, true, recKey, hashMix, eqU64, core.Config{Runtime: rt})
			if len(recs) == 0 {
				if out != nil || hout != nil {
					t.Errorf("p=%d %s: empty input emitted %d records", p, name, len(out))
				}
				continue
			}
			if len(hout.S) != len(out) {
				t.Fatalf("p=%d %s: %d hashes for %d records", p, name, len(hout.S), len(out))
			}
			for i, r := range out {
				if hout.S[i] != hashMix(r.key) {
					t.Fatalf("p=%d %s: record %d (key %d) carries hash %#x, want %#x", p, name, i, r.key, hout.S[i], hashMix(r.key))
				}
			}
			hout.Release()
		}
		rt.Close()
	}
}

// carriedPlane is the plane a producer would hand over for recs: every
// record's cached hash, plus the top keys by count as carried heavy keys
// (all of which occur in recs).
func carriedPlane(recs []rec, top int) *core.Plane[uint64] {
	pl := &core.Plane[uint64]{Hashes: make([]uint64, len(recs))}
	counts := map[uint64]int{}
	for i, r := range recs {
		pl.Hashes[i] = hashMix(r.key)
		counts[r.key]++
	}
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y uint64) int {
		return cmp.Or(cmp.Compare(counts[y], counts[x]), cmp.Compare(x, y))
	})
	pl.HeavyKeys = keys[:min(top, len(keys))]
	for _, k := range pl.HeavyKeys {
		pl.HeavyHashes = append(pl.HeavyHashes, hashMix(k))
	}
	return pl
}

func TestPlaneOpsAdoptCarriedKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []rec
	}{
		{"zipf-serial", zipfRecs(1<<15, 1.2, 61)},
		{"zipf-parallel", zipfRecs(core.SerialCutoff+23456, 1.2, 62)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := carriedPlane(tc.recs, 16)
			armed := func(name string, s *obs.CallStats) {
				t.Helper()
				if s.HashCalls != 0 || s.AdoptedLevels != 1 {
					t.Errorf("%s: HashCalls = %d, AdoptedLevels = %d; want 0 and 1", name, s.HashCalls, s.AdoptedLevels)
				}
			}

			var s obs.CallStats
			got, _ := DedupPlane(tc.recs, pl, false, recKey, hashMix, eqU64, core.Config{Stats: &s})
			armed("DedupPlane", &s)
			want := Dedup(tc.recs, recKey, hashMix, eqU64, core.Config{})
			sortRecs := func(rs []rec) []rec {
				rs = slices.Clone(rs)
				slices.SortFunc(rs, func(x, y rec) int { return cmp.Compare(x.key, y.key) })
				return rs
			}
			if !slices.Equal(sortRecs(got), sortRecs(want)) {
				t.Errorf("DedupPlane kept %d records, Dedup %d, or different ones", len(got), len(want))
			}

			s = obs.CallStats{}
			n := CountDistinctPlane(tc.recs, pl, recKey, hashMix, eqU64, core.Config{Stats: &s})
			armed("CountDistinctPlane", &s)
			if m := CountDistinct(tc.recs, recKey, hashMix, eqU64, core.Config{}); n != m {
				t.Errorf("CountDistinctPlane = %d, CountDistinct = %d", n, m)
			}
		})
	}
}
