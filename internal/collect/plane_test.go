package collect

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// The pipeline entry points: given an input plane with cached hashes and
// carried heavy keys that occur in the data, HistogramPlane and ReducePlane
// never call the user hash, adopt the carried keys in place of the level-0
// sampling round, and return the plain ops' result sets.

func TestPlaneOpsAdoptCarriedKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []crec
	}{
		{"zipf-serial", zipfRecs(1<<15, 1.2, 71)},
		{"zipf-parallel", zipfRecs(serialCutoff+23456, 1.2, 72)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := func(r crec) uint64 { return r.key }
			pl := &core.Plane[uint64]{Hashes: make([]uint64, len(tc.recs))}
			counts := map[uint64]int64{}
			for i, r := range tc.recs {
				pl.Hashes[i] = hashMix(r.key)
				counts[r.key]++
			}
			for k := range counts {
				pl.HeavyKeys = append(pl.HeavyKeys, k)
			}
			slices.SortFunc(pl.HeavyKeys, func(x, y uint64) int {
				return cmp.Or(cmp.Compare(counts[y], counts[x]), cmp.Compare(x, y))
			})
			pl.HeavyKeys = pl.HeavyKeys[:16]
			for _, k := range pl.HeavyKeys {
				pl.HeavyHashes = append(pl.HeavyHashes, hashMix(k))
			}
			armed := func(name string, s *obs.CallStats) {
				t.Helper()
				if s.HashCalls != 0 || s.AdoptedLevels != 1 {
					t.Errorf("%s: HashCalls = %d, AdoptedLevels = %d; want 0 and 1", name, s.HashCalls, s.AdoptedLevels)
				}
			}
			byKey := func(kv []KV[uint64, int64]) []KV[uint64, int64] {
				kv = slices.Clone(kv)
				slices.SortFunc(kv, func(x, y KV[uint64, int64]) int { return cmp.Compare(x.Key, y.Key) })
				return kv
			}

			var s obs.CallStats
			got := HistogramPlane(tc.recs, pl, key, hashMix, eqU64, core.Config{Stats: &s})
			armed("HistogramPlane", &s)
			want := byKey(Histogram(tc.recs, key, hashMix, eqU64, core.Config{}))
			if !slices.Equal(byKey(got), want) {
				t.Errorf("HistogramPlane: %d KVs differ from Histogram's %d", len(got), len(want))
			}

			// The sum of sequence numbers is order-free, so the plane and the
			// plain call must agree exactly on it.
			rd := Reducer[crec, uint64, int64]{
				Key:     key,
				Hash:    hashMix,
				Eq:      eqU64,
				Map:     func(r crec) int64 { return int64(r.seq) },
				Combine: func(a, b int64) int64 { return a + b },
			}
			s = obs.CallStats{}
			got = ReducePlane(tc.recs, pl, rd, core.Config{Stats: &s})
			armed("ReducePlane", &s)
			want = byKey(Reduce(tc.recs, rd, core.Config{}))
			if !slices.Equal(byKey(got), want) {
				t.Errorf("ReducePlane: %d KVs differ from Reduce's %d", len(got), len(want))
			}
		})
	}
}
