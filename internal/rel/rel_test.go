package rel

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hashutil"
)

func hashMix(k uint64) uint64 { return hashutil.Mix64(k) }
func eqU64(a, b uint64) bool  { return a == b }

// rec is the test record: a key plus the record's input position, so tests
// can check WHICH occurrence an op kept, not just which keys.
type rec struct {
	key uint64
	seq int32
}

func recKey(r rec) uint64 { return r.key }

func mkRecs(keys []uint64) []rec {
	recs := make([]rec, len(keys))
	for i, k := range keys {
		recs[i] = rec{key: k, seq: int32(i)}
	}
	return recs
}

func zipfRecs(n int, s float64, seed uint64) []rec {
	return mkRecs(dist.Keys64(n, dist.Spec{Kind: dist.Zipfian, Param: s}, seed))
}

func uniformRecs(n int, seed uint64) []rec {
	return mkRecs(dist.Keys64(n, dist.Spec{Kind: dist.Uniform, Param: float64(n)}, seed))
}

// testShapes covers both engine paths (serial below core.SerialCutoff,
// parallel above) and both skew regimes, plus the degenerate single-key
// (all-heavy, collapse-triggering) shape.
func testShapes(tb testing.TB) map[string][]rec {
	one := make([]rec, 1<<17)
	for i := range one {
		one[i] = rec{key: 42, seq: int32(i)}
	}
	return map[string][]rec{
		"uniform-serial":   uniformRecs(1<<15, 1),
		"uniform-parallel": uniformRecs(core.SerialCutoff+12345, 2),
		"zipf-serial":      zipfRecs(1<<15, 1.2, 3),
		"zipf-parallel":    zipfRecs(core.SerialCutoff+23456, 1.2, 4),
		"one-key":          one,
		"tiny":             uniformRecs(100, 5),
		"empty":            nil,
	}
}

// refFirst is the naive dedup reference: first occurrence per key.
func refFirst(recs []rec) map[uint64]int32 {
	want := make(map[uint64]int32)
	for _, r := range recs {
		if _, ok := want[r.key]; !ok {
			want[r.key] = r.seq
		}
	}
	return want
}

func TestDedupKeepsFirstOccurrence(t *testing.T) {
	for name, recs := range testShapes(t) {
		t.Run(name, func(t *testing.T) {
			got := Dedup(recs, recKey, hashMix, eqU64, core.Config{})
			want := refFirst(recs)
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d distinct keys", len(got), len(want))
			}
			seen := make(map[uint64]bool, len(got))
			for _, r := range got {
				if seen[r.key] {
					t.Fatalf("key %d emitted twice", r.key)
				}
				seen[r.key] = true
				if w, ok := want[r.key]; !ok {
					t.Fatalf("key %d not in input", r.key)
				} else if w != r.seq {
					t.Fatalf("key %d: kept occurrence %d, want first occurrence %d", r.key, r.seq, w)
				}
			}
		})
	}
}

func TestCountDistinct(t *testing.T) {
	for name, recs := range testShapes(t) {
		t.Run(name, func(t *testing.T) {
			got := CountDistinct(recs, recKey, hashMix, eqU64, core.Config{})
			if want := int64(len(refFirst(recs))); got != want {
				t.Fatalf("got %d, want %d", got, want)
			}
		})
	}
}

func TestTopK(t *testing.T) {
	for name, recs := range testShapes(t) {
		t.Run(name, func(t *testing.T) {
			counts := make(map[uint64]int64)
			for _, r := range recs {
				counts[r.key]++
			}
			for _, k := range []int{1, 10, 1 << 20} {
				got := TopK(recs, k, recKey, hashMix, eqU64, core.Config{})
				wantLen := min(k, len(counts))
				if len(got) != wantLen {
					t.Fatalf("k=%d: got %d entries, want %d", k, len(got), wantLen)
				}
				// Counts must be correct per key, non-increasing, and at
				// least as large as every count left unselected (keys may
				// tie-break differently than any particular reference).
				sel := make(map[uint64]bool, len(got))
				minSel := int64(1) << 62
				for i, kv := range got {
					if counts[kv.Key] != kv.Value {
						t.Fatalf("k=%d: key %d count %d, want %d", k, kv.Key, kv.Value, counts[kv.Key])
					}
					if i > 0 && kv.Value > got[i-1].Value {
						t.Fatalf("k=%d: counts not non-increasing at %d", k, i)
					}
					sel[kv.Key] = true
					minSel = min(minSel, kv.Value)
				}
				for key, c := range counts {
					if !sel[key] && c > minSel {
						t.Fatalf("k=%d: unselected key %d has count %d > weakest selected %d", k, key, c, minSel)
					}
				}
			}
			if got := TopK(recs, 0, recKey, hashMix, eqU64, core.Config{}); got != nil {
				t.Fatalf("k=0: got %d entries, want none", len(got))
			}
		})
	}
}

// pairCode packs an inner-join row into one comparable word: a.seq in the
// high half, b.seq in the low half.
func pairCode(a, b rec) uint64 { return uint64(a.seq)<<32 | uint64(b.seq) }

// pairRef builds the inner-join reference multiset: every (a-seq, b-seq)
// pair with equal keys, as sorted pair codes.
func pairRef(as, bs []rec) []uint64 {
	byKey := make(map[uint64][]rec)
	for _, b := range bs {
		byKey[b.key] = append(byKey[b.key], b)
	}
	var want []uint64
	for _, a := range as {
		for _, b := range byKey[a.key] {
			want = append(want, pairCode(a, b))
		}
	}
	slices.Sort(want)
	return want
}

// countRef is JoinCount's reference: one KV per key present on both sides,
// valued count_a * count_b, sorted by key.
// countRef is JoinCount's map reference; a presence side counts each of its
// keys once.
func countRef(as, bs []rec, presA, presB bool) []collect.KV[uint64, int64] {
	na, nb := make(map[uint64]int64), make(map[uint64]int64)
	for _, a := range as {
		if na[a.key] == 0 || !presA {
			na[a.key]++
		}
	}
	for _, b := range bs {
		if nb[b.key] == 0 || !presB {
			nb[b.key]++
		}
	}
	var want []collect.KV[uint64, int64]
	for k, c := range na {
		if nb[k] > 0 {
			want = append(want, collect.KV[uint64, int64]{Key: k, Value: c * nb[k]})
		}
	}
	return sortedByKey(want)
}

func sortedByKey(kvs []collect.KV[uint64, int64]) []collect.KV[uint64, int64] {
	kvs = slices.Clone(kvs)
	slices.SortFunc(kvs, func(x, y collect.KV[uint64, int64]) int { return cmp.Compare(x.Key, y.Key) })
	return kvs
}

func checkJoin(t *testing.T, as, bs []rec) {
	t.Helper()
	cfg := core.Config{}
	got := Join(as, bs, recKey, recKey, hashMix, eqU64, pairCode, cfg)
	sorted := slices.Clone(got)
	slices.Sort(sorted)
	if want := pairRef(as, bs); !slices.Equal(sorted, want) {
		t.Fatalf("inner: %d rows differ from the %d reference pairs", len(got), len(want))
	}
	// The plane-emitting join returns the same rows in the same order, with
	// every row's key hash in the emitted plane (a.seq is a's index in every
	// test input).
	var pl core.Plane[uint64]
	rows := JoinPlane(as, nil, bs, nil, recKey, recKey, hashMix, eqU64, pairCode, &pl, cfg)
	if !slices.Equal(rows, got) {
		t.Fatalf("JoinPlane rows differ from Join's")
	}
	if len(pl.Hashes) != len(rows) {
		t.Fatalf("JoinPlane emitted %d hashes for %d rows", len(pl.Hashes), len(rows))
	}
	for i, r := range rows {
		if want := hashMix(as[r>>32].key); pl.Hashes[i] != want {
			t.Fatalf("JoinPlane row %d: plane hash %#x, want %#x", i, pl.Hashes[i], want)
		}
	}
	pl.Release()
	for _, pres := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		cnt := JoinCount(as, nil, bs, nil, recKey, recKey, hashMix, eqU64, pres[0], pres[1], cfg)
		if !slices.Equal(sortedByKey(cnt), countRef(as, bs, pres[0], pres[1])) {
			t.Fatalf("JoinCount (presence %v): %d KVs differ from the reference", pres, len(cnt))
		}
	}

	inB := make(map[uint64]bool)
	for _, b := range bs {
		inB[b.key] = true
	}
	semi := SemiJoin(as, bs, recKey, recKey, hashMix, eqU64, cfg)
	anti := AntiJoin(as, bs, recKey, recKey, hashMix, eqU64, cfg)
	if len(semi)+len(anti) != len(as) {
		t.Fatalf("semi (%d) + anti (%d) != |a| (%d)", len(semi), len(anti), len(as))
	}
	seen := make(map[int32]bool, len(as))
	for _, r := range semi {
		if !inB[r.key] {
			t.Fatalf("semi emitted a-record %d whose key %d is not in b", r.seq, r.key)
		}
		if seen[r.seq] {
			t.Fatalf("semi emitted a-record %d twice", r.seq)
		}
		seen[r.seq] = true
	}
	for _, r := range anti {
		if inB[r.key] {
			t.Fatalf("anti emitted a-record %d whose key %d IS in b", r.seq, r.key)
		}
		if seen[r.seq] {
			t.Fatalf("a-record %d emitted by both semi and anti", r.seq)
		}
		seen[r.seq] = true
	}
}

func TestJoinAgainstReference(t *testing.T) {
	type tc struct {
		name   string
		as, bs []rec
	}
	// offset remaps half of b's keys away from a's key space so semi and
	// anti both have work.
	offset := func(recs []rec) []rec {
		out := make([]rec, len(recs))
		for i, r := range recs {
			out[i] = r
			if i%2 == 0 {
				out[i].key ^= 1 << 60
			}
		}
		return out
	}
	cases := []tc{
		{"both-empty", nil, nil},
		{"empty-a", nil, uniformRecs(1000, 1)},
		{"empty-b", uniformRecs(1000, 1), nil},
		{"tiny-b", uniformRecs(1<<17, 2), offset(uniformRecs(50, 3))},
		{"tiny-a", offset(uniformRecs(50, 4)), uniformRecs(1<<17, 5)},
		{"serial-serial", uniformRecs(1<<14, 6), offset(uniformRecs(1<<13, 7))},
		{"parallel-parallel", uniformRecs(core.SerialCutoff+11111, 8), offset(uniformRecs(core.SerialCutoff+7777, 9))},
		{"zipf-a", zipfRecs(core.SerialCutoff+5000, 1.2, 10), offset(uniformRecs(1<<15, 11))},
		{"zipf-both-small", zipfRecs(20000, 1.2, 12), offset(zipfRecs(20000, 1.2, 13))},
	}
	// All-heavy: both sides one key — the cross product must come out of
	// the broadcast path exactly once per pair.
	oneA := make([]rec, 1<<15)
	oneB := make([]rec, 300)
	for i := range oneA {
		oneA[i] = rec{key: 9, seq: int32(i)}
	}
	for i := range oneB {
		oneB[i] = rec{key: 9, seq: int32(i)}
	}
	cases = append(cases, tc{"all-heavy-one-key", oneA, oneB})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkJoin(t, c.as, c.bs) })
	}
}

func TestJoinFuzzVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		na, nb := rng.Intn(3000), rng.Intn(3000)
		keySpace := 1 + rng.Intn(200)
		as := make([]rec, na)
		for i := range as {
			as[i] = rec{key: uint64(rng.Intn(keySpace)), seq: int32(i)}
		}
		bs := make([]rec, nb)
		for i := range bs {
			bs[i] = rec{key: uint64(rng.Intn(keySpace * 2)), seq: int32(i)}
		}
		checkJoin(t, as, bs)
	}
}

func TestDedupFuzzVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		n := rng.Intn(50000)
		keySpace := 1 + rng.Intn(1+n/2)
		recs := make([]rec, n)
		for i := range recs {
			recs[i] = rec{key: uint64(rng.Intn(keySpace)), seq: int32(i)}
		}
		want := refFirst(recs)
		got := Dedup(recs, recKey, hashMix, eqU64, core.Config{})
		if len(got) != len(want) {
			t.Fatalf("round %d: got %d, want %d distinct", round, len(got), len(want))
		}
		for _, r := range got {
			if want[r.key] != r.seq {
				t.Fatalf("round %d: key %d kept seq %d, want %d", round, r.key, r.seq, want[r.key])
			}
		}
		if cd := CountDistinct(recs, recKey, hashMix, eqU64, core.Config{}); cd != int64(len(want)) {
			t.Fatalf("round %d: CountDistinct %d, want %d", round, cd, len(want))
		}
	}
}

// Adversarial user hash: every key collides, so recursion cannot split and
// the MaxDepth guard must hand whole buckets to the base cases.
func TestConstantHashTotality(t *testing.T) {
	recs := uniformRecs(1<<15, 21)
	constHash := func(uint64) uint64 { return 7 }
	cfg := core.Config{MaxDepth: 3}
	want := refFirst(recs)
	if got := Dedup(recs, recKey, hashMix, eqU64, cfg); len(got) != len(want) {
		t.Fatalf("dedup under shallow MaxDepth: %d vs %d", len(got), len(want))
	}
	if got := Dedup(recs, recKey, constHash, eqU64, cfg); len(got) != len(want) {
		t.Fatalf("dedup under constant hash: %d vs %d", len(got), len(want))
	}
	if got := CountDistinct(recs, recKey, constHash, eqU64, cfg); got != int64(len(want)) {
		t.Fatalf("count under constant hash: %d vs %d", got, len(want))
	}
	bs := uniformRecs(1<<13, 22)
	got := SemiJoin(recs, bs, recKey, recKey, constHash, eqU64, cfg)
	inB := make(map[uint64]bool)
	for _, b := range bs {
		inB[b.key] = true
	}
	wantSemi := 0
	for _, r := range recs {
		if inB[r.key] {
			wantSemi++
		}
	}
	if len(got) != wantSemi {
		t.Fatalf("semi under constant hash: %d vs %d", len(got), wantSemi)
	}
	cnt := JoinCount(recs, nil, bs, nil, recKey, recKey, constHash, eqU64, false, false, cfg)
	if !slices.Equal(sortedByKey(cnt), countRef(recs, bs, false, false)) {
		t.Fatalf("join count under constant hash: %d KVs differ from the reference", len(cnt))
	}
}

func TestDisableHeavy(t *testing.T) {
	recs := zipfRecs(1<<16+999, 1.2, 23)
	cfg := core.Config{DisableHeavy: true}
	want := refFirst(recs)
	got := Dedup(recs, recKey, hashMix, eqU64, cfg)
	if len(got) != len(want) {
		t.Fatalf("dedup: %d vs %d", len(got), len(want))
	}
	for _, r := range got {
		if want[r.key] != r.seq {
			t.Fatalf("key %d kept seq %d, want %d", r.key, r.seq, want[r.key])
		}
	}
	if cd := CountDistinct(recs, recKey, hashMix, eqU64, cfg); cd != int64(len(want)) {
		t.Fatalf("count: %d vs %d", cd, len(want))
	}
}
