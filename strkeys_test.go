package semisort_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	semisort "repro"
	"repro/internal/strkey"
)

// The string/[]byte-keyed public API (strkeys.go): every op must agree with
// a map reference over adversarial key shapes — empty strings, long shared
// prefixes, all-duplicates — and produce identical output across worker
// counts. Deep engine properties (arena layout, eq counting, alloc bounds)
// live in internal/strkey.

type event struct {
	URL string
	Seq int
}

func eventURL(e event) string { return e.URL }

// strCorpus builds n events over a key population mixing empty keys, short
// keys, and long shared-prefix keys that defeat cheap prefix discrimination.
func strCorpus(rng *rand.Rand, n, distinct int) []event {
	keys := make([]string, distinct)
	prefix := strings.Repeat("shared/prefix/of/considerable/length/", 3)
	for i := range keys {
		switch i % 4 {
		case 0:
			keys[i] = fmt.Sprintf("k%d", i)
		case 1:
			keys[i] = prefix + fmt.Sprintf("%09d", i)
		case 2:
			keys[i] = strings.Repeat("x", 1+i%97)
		default:
			if i == 3 {
				keys[i] = "" // one empty key in the population
			} else {
				keys[i] = fmt.Sprintf("host-%d.example.com/path/%d", i%37, i)
			}
		}
	}
	evs := make([]event, n)
	for i := range evs {
		evs[i] = event{URL: keys[rng.Intn(distinct)], Seq: i}
	}
	return evs
}

func TestStrKeyedPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, distinct = 120000, 900
	evs := strCorpus(rng, n, distinct)

	first := make(map[string]int)
	counts := make(map[string]int64)
	for _, e := range evs {
		if _, ok := first[e.URL]; !ok {
			first[e.URL] = e.Seq
		}
		counts[e.URL]++
	}

	// SortEq: same multiset, equal keys contiguous, first-touch groups.
	sorted := append([]event(nil), evs...)
	semisort.SortEqStr(sorted, eventURL)
	gotCounts := make(map[string]int64)
	seen := make(map[string]bool)
	for i := 0; i < len(sorted); {
		k := sorted[i].URL
		if seen[k] {
			t.Fatalf("SortEqStr: key %q appears in two separate runs", k)
		}
		seen[k] = true
		for i < len(sorted) && sorted[i].URL == k {
			gotCounts[k]++
			i++
		}
	}
	if !reflect.DeepEqual(gotCounts, counts) {
		t.Fatalf("SortEqStr changed the key multiset")
	}

	deduped := semisort.DedupStr(evs, eventURL)
	if len(deduped) != len(first) {
		t.Fatalf("DedupStr: %d records, want %d", len(deduped), len(first))
	}
	for _, e := range deduped {
		if first[e.URL] != e.Seq {
			t.Fatalf("DedupStr kept Seq %d of %q, want first %d", e.Seq, e.URL, first[e.URL])
		}
	}

	if got := semisort.CountDistinctStr(evs, eventURL); got != int64(len(first)) {
		t.Fatalf("CountDistinctStr: %d, want %d", got, len(first))
	}

	hist := semisort.HistogramStr(evs, eventURL)
	if len(hist) != len(counts) {
		t.Fatalf("HistogramStr: %d keys, want %d", len(hist), len(counts))
	}
	for _, kc := range hist {
		if counts[kc.Key] != kc.Count {
			t.Fatalf("HistogramStr: %q count %d, want %d", kc.Key, kc.Count, counts[kc.Key])
		}
	}

	top := semisort.TopKStr(evs, 5, eventURL)
	if len(top) != 5 {
		t.Fatalf("TopKStr: %d entries, want 5", len(top))
	}
	prev := int64(1) << 62
	for _, kc := range top {
		if counts[kc.Key] != kc.Count {
			t.Fatalf("TopKStr: %q count %d, want %d", kc.Key, kc.Count, counts[kc.Key])
		}
		if kc.Count > prev {
			t.Fatalf("TopKStr: counts not non-increasing")
		}
		prev = kc.Count
	}
	for k, c := range counts {
		if c > top[len(top)-1].Count {
			found := false
			for _, kc := range top {
				found = found || kc.Key == k
			}
			if !found {
				t.Fatalf("TopKStr missed %q with count %d", k, c)
			}
		}
	}
}

func TestStrKeyedJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	evs := strCorpus(rng, 60000, 700)
	dims := strCorpus(rng, 900, 1100) // overlaps part of the fact keys

	dimCount := make(map[string]int)
	for _, d := range dims {
		dimCount[d.URL]++
	}

	joined := semisort.JoinEqStr(evs, dims, eventURL, eventURL,
		func(e, d event) [2]int { return [2]int{e.Seq, d.Seq} })
	wantRows := 0
	for _, e := range evs {
		wantRows += dimCount[e.URL]
	}
	if len(joined) != wantRows {
		t.Fatalf("JoinEqStr: %d rows, want %d", len(joined), wantRows)
	}
	// Every emitted pair must actually match on key.
	bySeq := make(map[int]string, len(dims))
	for _, d := range dims {
		bySeq[d.Seq] = d.URL
	}
	for _, p := range joined {
		if evs[p[0]].URL != bySeq[p[1]] {
			t.Fatalf("JoinEqStr emitted non-matching pair %v", p)
		}
	}

	semi := semisort.SemiJoinEqStr(evs, dims, eventURL, eventURL)
	wantSemi := 0
	for _, e := range evs {
		if dimCount[e.URL] > 0 {
			wantSemi++
		}
	}
	if len(semi) != wantSemi {
		t.Fatalf("SemiJoinEqStr: %d rows, want %d", len(semi), wantSemi)
	}
	for _, e := range semi {
		if dimCount[e.URL] == 0 {
			t.Fatalf("SemiJoinEqStr kept %q, not in b", e.URL)
		}
	}
}

func TestKeyedCompositeAndBytes(t *testing.T) {
	// The ...Keyed forms: composite (two-field) keys materialized append-style
	// must behave exactly like the equivalent concatenated-string key.
	type row struct {
		Tenant uint32
		Name   string
		Seq    int
	}
	rng := rand.New(rand.NewSource(13))
	const n = 50000
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{Tenant: uint32(rng.Intn(7)), Name: fmt.Sprintf("n%d", rng.Intn(800)), Seq: i}
	}
	appendKey := semisort.AppendKey[row](func(dst []byte, r row) []byte {
		dst = binary.LittleEndian.AppendUint32(dst, r.Tenant)
		return append(dst, r.Name...)
	})
	strKey := func(r row) string {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], r.Tenant)
		return string(b[:]) + r.Name
	}

	first := make(map[string]int)
	for _, r := range rows {
		if _, ok := first[strKey(r)]; !ok {
			first[strKey(r)] = r.Seq
		}
	}
	deduped := semisort.DedupKeyed(rows, appendKey)
	if len(deduped) != len(first) {
		t.Fatalf("DedupKeyed: %d records, want %d", len(deduped), len(first))
	}
	for _, r := range deduped {
		if first[strKey(r)] != r.Seq {
			t.Fatalf("DedupKeyed kept Seq %d, want first %d", r.Seq, first[strKey(r)])
		}
	}
	if got := semisort.CountDistinctKeyed(rows, appendKey); got != int64(len(first)) {
		t.Fatalf("CountDistinctKeyed: %d, want %d", got, len(first))
	}

	sorted := append([]row(nil), rows...)
	semisort.SortEqKeyed(sorted, appendKey)
	seen := make(map[string]bool)
	for i := 0; i < len(sorted); {
		k := strKey(sorted[i])
		if seen[k] {
			t.Fatalf("SortEqKeyed: composite key %q in two runs", k)
		}
		seen[k] = true
		for i < len(sorted) && strKey(sorted[i]) == k {
			i++
		}
	}

	joined := semisort.JoinEqKeyed(rows[:1000], rows[:100], appendKey, appendKey,
		func(a, b row) int { return a.Seq })
	want := 0
	inB := make(map[string]int)
	for _, r := range rows[:100] {
		inB[strKey(r)]++
	}
	for _, r := range rows[:1000] {
		want += inB[strKey(r)]
	}
	if len(joined) != want {
		t.Fatalf("JoinEqKeyed: %d rows, want %d", len(joined), want)
	}
}

func TestStrKeyedEdgeShapes(t *testing.T) {
	// Degenerate inputs: empty relation, all-empty-string keys, all one key.
	if out := semisort.DedupStr(nil, eventURL); len(out) != 0 {
		t.Fatalf("DedupStr(nil): %d records", len(out))
	}
	if got := semisort.CountDistinctStr([]event{}, eventURL); got != 0 {
		t.Fatalf("CountDistinctStr(empty): %d", got)
	}
	allEmpty := make([]event, 5000)
	for i := range allEmpty {
		allEmpty[i] = event{URL: "", Seq: i}
	}
	if got := semisort.CountDistinctStr(allEmpty, eventURL); got != 1 {
		t.Fatalf("CountDistinctStr(all empty keys): %d, want 1", got)
	}
	d := semisort.DedupStr(allEmpty, eventURL)
	if len(d) != 1 || d[0].Seq != 0 {
		t.Fatalf("DedupStr(all empty keys): %+v", d)
	}
	one := make([]event, 30000)
	for i := range one {
		one[i] = event{URL: "only", Seq: i}
	}
	semisort.SortEqStr(one, eventURL)
	for i, e := range one {
		if e.URL != "only" {
			t.Fatalf("SortEqStr(all dup) corrupted record %d: %+v", i, e)
		}
	}
	top := semisort.TopKStr(one, 4, eventURL)
	if len(top) != 1 || top[0].Key != "only" || top[0].Count != int64(len(one)) {
		t.Fatalf("TopKStr(all dup): %+v", top)
	}
}

func TestStrKeyedDeterministicAcrossWorkers(t *testing.T) {
	// Output bytes — including full record order from SortEq and Dedup, and
	// key order from the histograms — must not depend on the worker count.
	rng := rand.New(rand.NewSource(14))
	evs := strCorpus(rng, 80000, 600)
	dims := strCorpus(rng, 500, 900)

	type snapshot struct {
		sorted  []event
		deduped []event
		joined  []int
		hist    []semisort.KeyCount[string]
		qhist   []semisort.KeyCount[string]
		top     []semisort.KeyCount[string]
	}
	run := func(workers int) snapshot {
		rt := semisort.NewRuntime(workers)
		defer rt.Close()
		opt := semisort.WithRuntime(rt)
		s := append([]event(nil), evs...)
		semisort.SortEqStr(s, eventURL, opt)
		return snapshot{
			sorted:  s,
			deduped: semisort.DedupStr(evs, eventURL, opt),
			joined: semisort.JoinEqStr(evs, dims, eventURL, eventURL,
				func(e, d event) int { return e.Seq*1000003 + d.Seq }, opt),
			hist:  semisort.HistogramStr(evs, eventURL, opt),
			qhist: semisort.QueryStr(evs, eventURL, opt).Histogram(),
			top:   semisort.TopKStr(evs, 8, eventURL, opt),
		}
	}
	want := run(1)
	for _, w := range []int{3, 7} {
		got := run(w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("string-keyed outputs differ between 1 and %d workers", w)
		}
	}
}

// ownCorpus builds 2d events over exactly d distinct keys: an empty key,
// 1-byte keys, keys of a few KB and medium keys, with skewed counts. tag
// picks the key bytes; two tags give keys of the same lengths and different
// bytes, so a result that aliased a rewritten buffer would read wrong keys.
func ownCorpus(rng *rand.Rand, d int, tag byte) []event {
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
	evs := make([]event, 0, 2*d)
	for i := 0; i < d; i++ {
		evs = append(evs, event{URL: key(i)})
	}
	for len(evs) < 2*d {
		evs = append(evs, event{URL: key(rng.Intn(1 + rng.Intn(d)))})
	}
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	for i := range evs {
		evs[i].Seq = i
	}
	return evs
}

// checkKeyCounts checks a string-keyed result against a map reference: every
// key appears once with its reference count, and all want keys appear
// (sorted results must also be ordered by non-increasing count).
func checkKeyCounts(t *testing.T, name string, got []semisort.KeyCount[string], want map[string]int64, sorted bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", name, len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for i, kc := range got {
		if c, ok := want[kc.Key]; !ok || c != kc.Count || seen[kc.Key] {
			t.Fatalf("%s: entry %d = (%.40q, %d), want a fresh key with its reference count", name, i, kc.Key, kc.Count)
		}
		seen[kc.Key] = true
		if sorted && i > 0 && kc.Count > got[i-1].Count {
			t.Fatalf("%s: counts not non-increasing at %d", name, i)
		}
	}
}

// TestStrKeyedResultsOwnTheirBytes pins that string-keyed results never
// alias pooled memory: each result is kept while later string calls on
// other keys rewrite the runtime's pooled arena blocks, and only then
// checked. Distinct counts straddle the key materializer's block size.
func TestStrKeyedResultsOwnTheirBytes(t *testing.T) {
	const b = strkey.KeyBlock
	rng := rand.New(rand.NewSource(17))
	for _, workers := range []int{1, 2} {
		rt := semisort.NewRuntime(workers)
		opt := semisort.WithRuntime(rt)
		for _, d := range []int{1, b - 1, b, b + 1, 3*b + 5} {
			evs := ownCorpus(rng, d, 'a')
			dims := make([]event, 0, d) // one row per key: join counts = counts
			counts := make(map[string]int64)
			for _, e := range evs {
				if counts[e.URL] == 0 {
					dims = append(dims, e)
				}
				counts[e.URL]++
			}
			hist := semisort.HistogramStr(evs, eventURL, opt)
			top := semisort.TopKStr(evs, d, eventURL, opt)
			qhist := semisort.QueryStr(evs, eventURL, opt).Histogram()
			jhist := semisort.QueryStr(evs, eventURL, opt).JoinEq(dims, eventURL).Histogram()

			other := ownCorpus(rng, d, 'b')
			semisort.HistogramStr(other, eventURL, opt)
			semisort.DedupStr(other, eventURL, opt)
			semisort.SortEqStr(append([]event(nil), other...), eventURL, opt)
			semisort.QueryStr(other, eventURL, opt).JoinEq(other, eventURL).Histogram()

			name := fmt.Sprintf("workers=%d distinct=%d", workers, d)
			checkKeyCounts(t, name+" HistogramStr", hist, counts, false)
			checkKeyCounts(t, name+" TopKStr", top, counts, true)
			checkKeyCounts(t, name+" QueryStr.Histogram", qhist, counts, false)
			checkKeyCounts(t, name+" QueryStr.JoinEq.Histogram", jhist, counts, false)
		}
		rt.Close()
	}
}

func TestStrKeyTooLongPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("oversize key did not panic")
		}
		// The build runs under the runtime's panic containment, so the value
		// may arrive wrapped; the message must still name the limit.
		if !strings.Contains(fmt.Sprint(r), "key longer than") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	huge := []event{{URL: strings.Repeat("a", semisort.MaxStrKeyLen+1)}}
	semisort.CountDistinctStr(huge, eventURL)
}
