package semisort_test

import (
	"cmp"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	semisort "repro"
)

// The fused string pipeline (strpipe.go): stage chains must agree with the
// composition of the standalone string ops and with map references, across
// worker counts, with faults delivered at the terminal.

func TestStrPipelineStagesAndTerminals(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	evs := strCorpus(rng, 90000, 800)
	counts := make(map[string]int64)
	first := make(map[string]int)
	for _, e := range evs {
		counts[e.URL]++
		if _, ok := first[e.URL]; !ok {
			first[e.URL] = e.Seq
		}
	}

	// Dedup -> Run agrees with DedupStr.
	deduped := semisort.QueryStr(evs, eventURL).Dedup().Run()
	if len(deduped) != len(first) {
		t.Fatalf("pipeline Dedup: %d records, want %d", len(deduped), len(first))
	}
	for _, e := range deduped {
		if first[e.URL] != e.Seq {
			t.Fatalf("pipeline Dedup kept Seq %d of %q, want %d", e.Seq, e.URL, first[e.URL])
		}
	}

	// Sort -> Groups: contiguous equal-key runs with exact boundaries.
	out, groups := semisort.QueryStr(evs, eventURL).Sort().Groups()
	if len(groups) != len(counts) {
		t.Fatalf("pipeline Groups: %d groups, want %d", len(groups), len(counts))
	}
	for _, g := range groups {
		k := out[g.Lo].URL
		if int64(g.Hi-g.Lo) != counts[k] {
			t.Fatalf("group %q: size %d, want %d", k, g.Hi-g.Lo, counts[k])
		}
		for i := g.Lo; i < g.Hi; i++ {
			if out[i].URL != k {
				t.Fatalf("group %q contains key %q", k, out[i].URL)
			}
		}
	}

	// Histogram / TopK / CountDistinct terminals.
	hist := semisort.QueryStr(evs, eventURL).Histogram()
	if len(hist) != len(counts) {
		t.Fatalf("pipeline Histogram: %d keys, want %d", len(hist), len(counts))
	}
	for _, kc := range hist {
		if counts[kc.Key] != kc.Count {
			t.Fatalf("pipeline Histogram: %q = %d, want %d", kc.Key, kc.Count, counts[kc.Key])
		}
	}
	if got := semisort.QueryStr(evs, eventURL).Sort().CountDistinct(); got != int64(len(counts)) {
		t.Fatalf("pipeline Sort.CountDistinct: %d, want %d", got, len(counts))
	}
	top := semisort.QueryStr(evs, eventURL).TopK(6)
	if len(top) != 6 {
		t.Fatalf("pipeline TopK: %d entries", len(top))
	}
	for _, kc := range top {
		if counts[kc.Key] != kc.Count {
			t.Fatalf("pipeline TopK: %q = %d, want %d", kc.Key, kc.Count, counts[kc.Key])
		}
	}
}

func TestStrPipelineJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	evs := strCorpus(rng, 40000, 500)
	dims := strCorpus(rng, 700, 800)
	dimCount := make(map[string]int64)
	for _, d := range dims {
		dimCount[d.URL]++
	}
	wantRows := int64(0)
	joinCounts := make(map[string]int64)
	matched := make(map[string]bool)
	for _, e := range evs {
		if c := dimCount[e.URL]; c > 0 {
			wantRows += c
			joinCounts[e.URL] += c
			matched[e.URL] = true
		}
	}

	// Materializing terminal: every row matches on key.
	rows := semisort.QueryStr(evs, eventURL).JoinEq(dims, eventURL).Run()
	if int64(len(rows)) != wantRows {
		t.Fatalf("join Run: %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.Left.URL != r.Right.URL {
			t.Fatalf("join emitted non-matching pair %q / %q", r.Left.URL, r.Right.URL)
		}
	}

	// Counting terminals never materialize rows; counts are per join key.
	hist := semisort.QueryStr(evs, eventURL).JoinEq(dims, eventURL).Histogram()
	if len(hist) != len(joinCounts) {
		t.Fatalf("join Histogram: %d keys, want %d", len(hist), len(joinCounts))
	}
	for _, kc := range hist {
		if joinCounts[kc.Key] != kc.Count {
			t.Fatalf("join Histogram: %q = %d, want %d", kc.Key, kc.Count, joinCounts[kc.Key])
		}
	}
	if got := semisort.QueryStr(evs, eventURL).JoinEq(dims, eventURL).CountDistinct(); got != int64(len(matched)) {
		t.Fatalf("join CountDistinct: %d, want %d", got, len(matched))
	}

	// Dedup before the join: one row per (distinct fact key, dim record).
	dedupRows := semisort.QueryStr(evs, eventURL).Dedup().JoinEq(dims, eventURL).Run()
	wantDedup := int64(0)
	for k := range joinCounts {
		wantDedup += dimCount[k]
	}
	if int64(len(dedupRows)) != wantDedup {
		t.Fatalf("Dedup.JoinEq: %d rows, want %d", len(dedupRows), wantDedup)
	}

	// JoinEqP with a string pipeline on either side or on both: the right
	// side runs to its records, and the join matches JoinEq over them.
	query := func(rs []event) *semisort.Pipeline[event, string] {
		return semisort.Query(rs, eventURL, semisort.HashString, func(x, y string) bool { return x == y })
	}
	str := func(rs []event) *semisort.Pipeline[event, string] { return semisort.QueryStr(rs, eventURL) }
	for _, tc := range []struct {
		name        string
		left, right func([]event) *semisort.Pipeline[event, string]
	}{
		{"Query.JoinEqP(QueryStr)", query, str},
		{"QueryStr.JoinEqP(Query)", str, query},
		{"QueryStr.JoinEqP(QueryStr)", str, str},
	} {
		right := tc.right(dims).Dedup().Run()
		want := sortedRows(tc.left(evs).JoinEq(right, eventURL).Run())
		got := sortedRows(tc.left(evs).JoinEqP(tc.right(dims).Dedup()).Run())
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d rows, want the %d rows of JoinEq on the right side's records", tc.name, len(got), len(want))
		}
		wantN := tc.left(evs).JoinEq(right, eventURL).CountDistinct()
		if n := tc.left(evs).JoinEqP(tc.right(dims).Dedup()).CountDistinct(); n != wantN || n != int64(len(matched)) {
			t.Fatalf("%s: CountDistinct = %d, want %d (JoinEq) and %d matched keys", tc.name, n, wantN, len(matched))
		}
	}
}

// sortedRows orders joined events by their sides' sequence numbers, so row
// sets compare independently of emission order.
func sortedRows(rows []semisort.Joined[event]) []semisort.Joined[event] {
	slices.SortFunc(rows, func(x, y semisort.Joined[event]) int {
		return cmp.Or(cmp.Compare(x.Left.Seq, y.Left.Seq), cmp.Compare(x.Right.Seq, y.Right.Seq))
	})
	return rows
}

// TestStrPipelineJoinEqPFault: a fault of JoinEqP's right side rides into
// the join and is reported at its terminal, whichever side is the string
// pipeline, and both pipelines come out consumed.
func TestStrPipelineJoinEqPFault(t *testing.T) {
	evs := strCorpus(rand.New(rand.NewSource(25)), 20000, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eq := func(x, y string) bool { return x == y }
	for _, tc := range []struct {
		name        string
		left, right *semisort.Pipeline[event, string]
	}{
		{"Query.JoinEqP(QueryStr)", semisort.Query(evs, eventURL, semisort.HashString, eq),
			semisort.QueryStr(evs, eventURL, semisort.WithContext(ctx))},
		{"QueryStr.JoinEqP(Query)", semisort.QueryStr(evs, eventURL),
			semisort.Query(evs, eventURL, semisort.HashString, eq, semisort.WithContext(ctx)).Sort()},
		{"QueryStr.JoinEqP(QueryStr)", semisort.QueryStr(evs, eventURL),
			semisort.QueryStr(evs, eventURL, semisort.WithContext(ctx))},
	} {
		jp := tc.left.JoinEqP(tc.right)
		if _, err := jp.HistogramE(); err == nil {
			t.Fatalf("%s: a cancelled right side returned no error", tc.name)
		}
		for _, p := range []*semisort.Pipeline[event, string]{tc.left, tc.right} {
			func() {
				defer func() {
					if _, ok := recover().(*semisort.PipelineConsumedError); !ok {
						t.Fatalf("%s: a side was not consumed by the join", tc.name)
					}
				}()
				p.Run()
			}()
		}
	}
}

func TestStrPipelineDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	evs := strCorpus(rng, 60000, 400)
	dims := strCorpus(rng, 400, 600)
	type snap struct {
		sorted []event
		rows   []semisort.Joined[event]
		top    []semisort.KeyCount[string]
	}
	run := func(workers int) snap {
		rt := semisort.NewRuntime(workers)
		defer rt.Close()
		opt := semisort.WithRuntime(rt)
		sorted, _ := semisort.QueryStr(evs, eventURL, opt).Sort().Groups()
		return snap{
			sorted: sorted,
			rows:   semisort.QueryStr(evs, eventURL, opt).JoinEq(dims, eventURL).Run(),
			top:    semisort.QueryStr(evs, eventURL, opt).Sort().TopK(7),
		}
	}
	want := run(1)
	for _, w := range []int{3, 7} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("string pipeline outputs differ between 1 and %d workers", w)
		}
	}
}

func TestStrPipelineFaults(t *testing.T) {
	evs := strCorpus(rand.New(rand.NewSource(24)), 30000, 300)

	// A pre-fired context faults the build; the terminal reports it and the
	// pipeline comes out consumed, not half-computed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := semisort.QueryStr(evs, eventURL, semisort.WithContext(ctx)).Dedup().Sort()
	if _, err := p.RunE(); err == nil {
		t.Fatalf("pre-cancelled string pipeline returned no error")
	}

	// Same through a join chain.
	jp := semisort.QueryStr(evs, eventURL, semisort.WithContext(ctx)).JoinEq(evs[:100], eventURL)
	if _, err := jp.HistogramE(); err == nil {
		t.Fatalf("pre-cancelled joined string pipeline returned no error")
	}

	// Reuse after a terminal panics with the consumed error.
	done := semisort.QueryStr(evs, eventURL)
	done.CountDistinct()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("reuse of consumed string pipeline did not panic")
			}
		}()
		done.Run()
	}()
}
