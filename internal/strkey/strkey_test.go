package strkey

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/israce"
	"repro/internal/parallel"
)

// Deep engine properties of the arena key plane that need internal knobs —
// substitute hash functions, the bucketed entry points, counters. Public-API
// behavior (map references over adversarial corpora, worker determinism,
// composite keys) lives in the root package's strkeys_test.go.

type srec struct {
	K   string
	Seq int32
}

func srecKey(dst []byte, r srec) []byte { return append(dst, r.K...) }

func kvOf(k string, c int64) collect.KV[string, int64] {
	return collect.KV[string, int64]{Key: k, Value: c}
}

// corpus builds n records over a key population mixing empty, short, and
// long shared-prefix keys.
func corpus(n, distinct int, seed int64) []srec {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, distinct)
	for i := range keys {
		switch i % 3 {
		case 0:
			keys[i] = fmt.Sprintf("k%d", i)
		case 1:
			keys[i] = "shared/prefix/of/considerable/length/" + fmt.Sprintf("%09d", i)
		default:
			if i == 2 {
				keys[i] = ""
			} else {
				keys[i] = fmt.Sprintf("host-%d/path/%d", i%37, i)
			}
		}
	}
	a := make([]srec, n)
	for i := range a {
		a[i] = srec{K: keys[rng.Intn(distinct)], Seq: int32(i)}
	}
	return a
}

func refFirst(a []srec) map[string]int32 {
	first := make(map[string]int32)
	for _, r := range a {
		if _, ok := first[r.K]; !ok {
			first[r.K] = r.Seq
		}
	}
	return first
}

// checkOps runs the one-shot unary ops under the given hash and verifies
// each against a map reference. It exercises whichever path the dispatcher
// picks for len(a) — callers choose sizes on either side of minBucketed.
func checkOps(t *testing.T, a []srec, hash HashBytes) {
	t.Helper()
	first := refFirst(a)
	counts := make(map[string]int64)
	for _, r := range a {
		counts[r.K]++
	}

	if got := CountDistinct(a, srecKey, hash, core.Config{}); got != int64(len(first)) {
		t.Fatalf("CountDistinct: %d, want %d", got, len(first))
	}

	d := Dedup(a, srecKey, hash, core.Config{})
	if len(d) != len(first) {
		t.Fatalf("Dedup: %d records, want %d", len(d), len(first))
	}
	for _, r := range d {
		if first[r.K] != r.Seq {
			t.Fatalf("Dedup kept Seq %d of %q, want first %d", r.Seq, r.K, first[r.K])
		}
	}

	s := append([]srec(nil), a...)
	SortEq(s, srecKey, hash, core.Config{})
	seen := make(map[string]bool)
	got := make(map[string]int64)
	prevSeq := int32(-1)
	for i := 0; i < len(s); {
		k := s[i].K
		if seen[k] {
			t.Fatalf("SortEq: key %q appears in two separate runs", k)
		}
		seen[k] = true
		prevSeq = -1
		for i < len(s) && s[i].K == k {
			if s[i].Seq <= prevSeq {
				t.Fatalf("SortEq: group %q not in input order", k)
			}
			prevSeq = s[i].Seq
			got[k]++
			i++
		}
	}
	for k, c := range counts {
		if got[k] != c {
			t.Fatalf("SortEq changed the multiset of %q: %d, want %d", k, got[k], c)
		}
	}

	hist := Histogram(a, srecKey, hash, kvOf, core.Config{})
	if len(hist) != len(counts) {
		t.Fatalf("Histogram: %d keys, want %d", len(hist), len(counts))
	}
	for _, kv := range hist {
		if counts[kv.Key] != kv.Value {
			t.Fatalf("Histogram: %q count %d, want %d", kv.Key, kv.Value, counts[kv.Key])
		}
	}

	top := TopK(a, 3, srecKey, hash, kvOf, core.Config{})
	for _, kv := range top {
		if counts[kv.Key] != kv.Value {
			t.Fatalf("TopK: %q count %d, want %d", kv.Key, kv.Value, counts[kv.Key])
		}
	}
}

func TestOpsMatchReferences(t *testing.T) {
	// Below minBucketed (flat plane through the engines) and above it (the
	// serial bucketed plane when GOMAXPROCS permits), same properties.
	checkOps(t, corpus(20000, 700, 11), Bytes)
	checkOps(t, corpus(40000, 900, 12), Bytes)
}

// TestConstantHashTotality forces every key onto one digest: every record
// lands in ONE bucket (the digest's top bits name buckets), every table
// probe survives the digest gate, and the engines' recursion cannot split
// anything. The ops must stay correct and terminate — the totality the
// engine's MaxDepth fallback and the per-bucket tables guarantee — at
// quadratic cost in distinct keys, so the population stays small.
func TestConstantHashTotality(t *testing.T) {
	constHash := func([]byte) uint64 { return 42 }
	checkOps(t, corpus(20000, 60, 13), constHash)  // flat plane
	checkOps(t, corpus(40000, 100, 14), constHash) // bucketed plane
}

// TestBucketedEqCountContract pins the digest gate on the bucketed plane:
// on collision-free inputs each non-first record of a group issues exactly
// ONE full comparison (against its group's representative, after 64-bit
// digest equality), and first-of-group records issue none — n-distinct
// total. The generic engines' twin lives in core/rel eqcount tests.
func TestBucketedEqCountContract(t *testing.T) {
	const n, distinct = 40000, 700
	a := corpus(n, distinct, 15)
	nd := int64(len(refFirst(a)))
	for _, op := range []struct {
		name string
		run  func(cfg core.Config)
	}{
		{"CountDistinct", func(cfg core.Config) { bucketedCountDistinct(a, srecKey, Bytes, cfg) }},
		{"Dedup", func(cfg core.Config) { bucketedDedup(a, srecKey, Bytes, cfg) }},
		{"SortEq", func(cfg core.Config) {
			s := append([]srec(nil), a...)
			bucketedSortEq(s, srecKey, Bytes, cfg)
		}},
		{"Histogram", func(cfg core.Config) { bucketedHistogram(a, srecKey, Bytes, kvOf, cfg) }},
	} {
		var ec atomic.Int64
		op.run(core.Config{}.WithEqCounter(&ec))
		if got := ec.Load(); got != int64(n)-nd {
			t.Errorf("%s: %d full comparisons, want n-distinct = %d", op.name, got, int64(n)-nd)
		}
	}
}

// ownCorpus builds 2d records over exactly d distinct keys: an empty key,
// 1-byte keys, keys of a few KB and medium keys, with skewed counts. Two
// tags give keys of the same lengths and different bytes.
func ownCorpus(rng *rand.Rand, d int, tag byte) []srec {
	key := func(i int) string {
		switch {
		case i == 1:
			return ""
		case i%1000 == 0:
			unit := fmt.Sprintf("%c%d|", tag, i)
			return strings.Repeat(unit, 3000/len(unit))
		case i < 40:
			return string([]byte{tag ^ byte(i)})
		default:
			return fmt.Sprintf("%c%d/%s", tag, i, strings.Repeat("y", i%29))
		}
	}
	a := make([]srec, 0, 2*d)
	for i := 0; i < d; i++ {
		a = append(a, srec{K: key(i)})
	}
	for len(a) < 2*d {
		a = append(a, srec{K: key(rng.Intn(1 + rng.Intn(d)))})
	}
	rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	return a
}

// TestBucketedResultsOwnTheirBytes is the bucketed plane's twin of the root
// package's TestStrKeyedResultsOwnTheirBytes: histogram and top-k results
// are kept while later calls on other keys rewrite the pooled carved plane,
// and only then checked against a map reference. Distinct counts straddle
// KeyBlock.
func TestBucketedResultsOwnTheirBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, workers := range []int{1, 2} {
		rt := parallel.NewRuntime(workers)
		cfg := core.Config{Runtime: rt}
		for _, d := range []int{1, KeyBlock - 1, KeyBlock, KeyBlock + 1, 3*KeyBlock + 5} {
			a := ownCorpus(rng, d, 'a')
			counts := make(map[string]int64)
			for _, r := range a {
				counts[r.K]++
			}
			hist := bucketedHistogram(a, srecKey, Bytes, kvOf, cfg)
			top := bucketedTopK(a, d, srecKey, Bytes, kvOf, cfg)

			other := ownCorpus(rng, d, 'b')
			bucketedHistogram(other, srecKey, Bytes, kvOf, cfg)
			bucketedDedup(other, srecKey, Bytes, cfg)
			bucketedSortEq(append([]srec(nil), other...), srecKey, Bytes, cfg)

			for name, got := range map[string][]collect.KV[string, int64]{"Histogram": hist, "TopK": top} {
				if len(got) != len(counts) {
					t.Fatalf("workers=%d distinct=%d %s: %d keys, want %d", workers, d, name, len(got), len(counts))
				}
				seen := make(map[string]bool, len(got))
				for i, kv := range got {
					if c, ok := counts[kv.Key]; !ok || c != kv.Value || seen[kv.Key] {
						t.Fatalf("workers=%d distinct=%d %s: entry %d = (%.40q, %d), want a fresh key with its reference count",
							workers, d, name, i, kv.Key, kv.Value)
					}
					seen[kv.Key] = true
				}
			}
		}
		rt.Close()
	}
}

// TestSteadyAllocsSizeIndependent pins the arena plane's O(1)-in-n steady
// allocations: every build/table/chain buffer is pooled, so allocs/op must
// not scale with n — the same constant bound holds across a 4x size change.
// Bounds carry headroom over the ~1-10 measured because a GC pass during
// the run evicts pool contents and the refills count as allocations.
func TestSteadyAllocsSizeIndependent(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	pair := func(a, b srec) [2]int32 { return [2]int32{a.Seq, b.Seq} }
	for _, n := range []int{1 << 16, 1 << 18} {
		a := corpus(n, 900, 16)
		w := make([]srec, n)
		// The join's sides: n records over n/4 mostly light keys, and each
		// of those keys once, so the join recurses to its leaves and emits
		// n rows.
		fact := corpus(n, n/4, 18)
		var dim []srec
		for k := range refFirst(fact) {
			dim = append(dim, srec{K: k, Seq: int32(len(dim))})
		}
		for name, run := range map[string]func(){
			"SortEq": func() {
				copy(w, a)
				SortEq(w, srecKey, Bytes, core.Config{})
			},
			"Dedup":         func() { Dedup(a, srecKey, Bytes, core.Config{}) },
			"CountDistinct": func() { CountDistinct(a, srecKey, Bytes, core.Config{}) },
			"Histogram":     func() { Histogram(a, srecKey, Bytes, kvOf, core.Config{}) },
			"TopK":          func() { TopK(a, 10, srecKey, Bytes, kvOf, core.Config{}) },
			"JoinEq":        func() { Join(fact, dim, srecKey, srecKey, Bytes, pair, core.Config{}) },
		} {
			for i := 0; i < 3; i++ {
				run() // warm the pools at this size
			}
			// The join also leases probe chunks and emits rows; its bound is
			// rel's size-independent join bound.
			bound := 40.0
			if name == "JoinEq" {
				bound = 90
			}
			if got := testing.AllocsPerRun(5, run); got > bound {
				t.Errorf("%s at n=%d: %v allocs/op in steady state, want <= %v", name, n, got, bound)
			}
		}
	}
}

// TestHistogramAllocsPerBlock pins the key materializer's allocations on the
// flat plane (below minBucketed): the output keys cost one allocation per
// KeyBlock keys, not one per key, so a histogram of ~15.5k distinct keys
// (two blocks) stays within a small constant.
func TestHistogramAllocsPerBlock(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	a := corpus(30000, 20000, 17)
	if nd := len(refFirst(a)); nd <= KeyBlock || len(a) >= minBucketed {
		t.Fatalf("corpus has %d distinct keys in %d records, want > %d keys below %d records", nd, len(a), KeyBlock, minBucketed)
	}
	run := func() { Histogram(a, srecKey, Bytes, kvOf, core.Config{}) }
	for i := 0; i < 3; i++ {
		run() // warm the pools
	}
	if got := testing.AllocsPerRun(5, run); got > 64 {
		t.Errorf("Histogram: %v allocs/op in steady state, want <= 64", got)
	}
}

// TestBuildLongFirstKeyArena: a block's arena grows with the bytes it
// holds, however long its first key. One full Build block (8192 records)
// whose first key is 64 KB or 1 MB and whose other keys are short, on a
// fresh runtime so every lease is a fresh allocation: Build may allocate at
// most 8x the key bytes written plus its Rec and digest arrays and a fixed
// slack (the 1 MB case measures about 4x), and every span must read its key
// back.
func TestBuildLongFirstKeyArena(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	const n = 1 << 13
	for _, first := range []int{64 << 10, 1 << 20} {
		a := make([]srec, n)
		a[0].K = strings.Repeat("x", first)
		written := first
		for i := 1; i < n; i++ {
			a[i] = srec{K: fmt.Sprintf("k%d", i), Seq: int32(i)}
			written += len(a[i].K)
		}
		rt := parallel.NewRuntime(1)
		var p Plane
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Build(&p, 0, a, srecKey, Bytes, core.Config{Runtime: rt})
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		bound := uint64(8*written + n*int(unsafe.Sizeof(Rec{})+8) + 256<<10)
		if got > bound {
			t.Fatalf("first key %d B: Build allocated %d B for %d key bytes, want at most %d", first, got, written, bound)
		}
		for i, r := range p.Recs(0) {
			if k := p.Seg(r.Span); string(k) != a[i].K {
				t.Fatalf("first key %d B: record %d reads back %d bytes, want %q", first, i, len(k), a[i].K)
			}
		}
		p.Release()
		rt.Close()
	}
}

// FuzzOpsVsMap drives the ops with fuzz-derived key populations (arbitrary
// bytes, arbitrary duplication) against map references on both planes.
func FuzzOpsVsMap(f *testing.F) {
	f.Add([]byte("ab\x00cd|ef|ab|"), uint16(300))
	f.Add([]byte{0, 0, 0, 1, 2, 0xff, 0xfe}, uint16(40000))
	f.Add([]byte("shared-prefix-aaaa shared-prefix-aaab \xf0\x9f\x92\xa9"), uint16(33000))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		if len(data) == 0 {
			t.Skip()
		}
		// Key population: sliding windows over the raw bytes, window length
		// cycling 0..16 — empty keys, overlapping keys, binary junk.
		var keys []string
		for i, w := 0, 0; i < len(data) && len(keys) < 64; i, w = i+1, (w+1)%17 {
			end := min(i+w, len(data))
			keys = append(keys, string(data[i:end]))
		}
		a := make([]srec, int(n)%50000)
		if len(a) == 0 {
			t.Skip()
		}
		for i := range a {
			a[i] = srec{K: keys[(i*7+i/3)%len(keys)], Seq: int32(i)}
		}

		first := refFirst(a)
		if got := CountDistinct(a, srecKey, Bytes, core.Config{}); got != int64(len(first)) {
			t.Fatalf("CountDistinct: %d, want %d", got, len(first))
		}
		d := Dedup(a, srecKey, Bytes, core.Config{})
		if len(d) != len(first) {
			t.Fatalf("Dedup: %d records, want %d", len(d), len(first))
		}
		for _, r := range d {
			if first[r.K] != r.Seq {
				t.Fatalf("Dedup kept Seq %d of %q, want first %d", r.Seq, r.K, first[r.K])
			}
		}
		s := append([]srec(nil), a...)
		SortEq(s, srecKey, Bytes, core.Config{})
		seen := make(map[string]bool)
		for i := 0; i < len(s); {
			k := s[i].K
			if seen[k] {
				t.Fatalf("SortEq: key %q appears in two separate runs", k)
			}
			seen[k] = true
			for i < len(s) && s[i].K == k {
				i++
			}
		}
		if len(seen) != len(first) {
			t.Fatalf("SortEq: %d groups, want %d", len(seen), len(first))
		}
	})
}
