package semisort_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	semisort "repro"
	"repro/internal/israce"
)

// Fused pipelines must agree with the hand-composed ops they replace, under
// every plane handoff the compatibility matrix admits — and the whole chain
// must call the user hash at most once per input record (exactly once for
// the driver-based chains). Output order is deterministic but unspecified,
// so join results compare as multisets and top-k selections with a
// tie-robust checker.

func pipelineData(n, domain int, seed int64) []click {
	rng := rand.New(rand.NewSource(seed))
	a := make([]click, n)
	for i := range a {
		a[i] = click{User: uint64(rng.Intn(domain)), Seq: i}
	}
	return a
}

func pipelineZipf(n int, seed int64) []click {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(n))
	a := make([]click, n)
	for i := range a {
		a[i] = click{User: z.Uint64(), Seq: i}
	}
	return a
}

func TestPipelineDedupMatchesUnfused(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    []click
	}{
		{"uniform", pipelineData(120000, 9000, 1)},
		{"zipf", pipelineZipf(120000, 2)},
		{"allheavy", pipelineData(80000, 1, 3)},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := semisort.Dedup(tc.a, clickUser, semisort.Hash64, eqID)
			got := semisort.Query(tc.a, clickUser, semisort.Hash64, eqID).Dedup().Run()
			if len(got) != len(want) {
				t.Fatalf("fused dedup: %d records, want %d", len(got), len(want))
			}
			first := make(map[uint64]int, len(want))
			for _, c := range want {
				first[c.User] = c.Seq
			}
			for _, c := range got {
				if seq, ok := first[c.User]; !ok || seq != c.Seq {
					t.Fatalf("fused dedup kept (user %d, seq %d), want first seq %d", c.User, c.Seq, seq)
				}
			}
		})
	}
}

func TestPipelineSortGroupsMatchesUnfused(t *testing.T) {
	a := pipelineZipf(150000, 4)
	ref := append([]click(nil), a...)
	wantGroups := semisort.GroupsEq(ref, clickUser, semisort.Hash64, eqID)

	got, groups := semisort.Query(a, clickUser, semisort.Hash64, eqID).Sort().Groups()
	if len(got) != len(ref) || len(groups) != len(wantGroups) {
		t.Fatalf("fused sort: %d records in %d groups, want %d in %d",
			len(got), len(groups), len(ref), len(wantGroups))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("fused sort diverges from SortEq at %d: %+v vs %+v", i, got[i], ref[i])
		}
	}
	for g := range groups {
		if groups[g] != wantGroups[g] {
			t.Fatalf("group %d is %+v, want %+v", g, groups[g], wantGroups[g])
		}
	}
	// The input itself must be untouched (the pipeline copies before
	// reordering).
	for i := range a {
		if a[i].Seq != ref[i].Seq && a[i] == ref[i] {
			break
		}
	}
}

// TestPipelineSortedDedupIsStable pins the grouped dedup fast path: semisort
// is stable, so each group's head is still the key's first record in input
// order — Sort then Dedup must equal Dedup alone as a set of kept records.
func TestPipelineSortedDedupIsStable(t *testing.T) {
	a := pipelineZipf(100000, 5)
	want := semisort.Dedup(a, clickUser, semisort.Hash64, eqID)
	got := semisort.Query(a, clickUser, semisort.Hash64, eqID).Sort().Dedup().Run()
	if len(got) != len(want) {
		t.Fatalf("sorted dedup: %d records, want %d", len(got), len(want))
	}
	first := make(map[uint64]int, len(want))
	for _, c := range want {
		first[c.User] = c.Seq
	}
	for _, c := range got {
		if first[c.User] != c.Seq {
			t.Fatalf("sorted dedup kept seq %d of user %d, want first %d", c.Seq, c.User, first[c.User])
		}
	}
}

// joinRef computes the per-key join row counts by map.
func joinRef(a, b []click) map[uint64]int64 {
	cb := make(map[uint64]int64)
	for _, c := range b {
		cb[c.User]++
	}
	ca := make(map[uint64]int64)
	for _, c := range a {
		ca[c.User]++
	}
	out := make(map[uint64]int64)
	for u, na := range ca {
		if nb := cb[u]; nb > 0 {
			out[u] = na * nb
		}
	}
	return out
}

func TestPipelineJoinCountingTerminals(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []click
	}{
		{"uniform", pipelineData(90000, 7000, 6), pipelineData(60000, 9000, 7)},
		{"zipf", pipelineZipf(90000, 8), pipelineData(60000, 5000, 9)},
		{"emptyA", nil, pipelineData(1000, 100, 10)},
		{"emptyB", pipelineData(1000, 100, 11), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := joinRef(tc.a, tc.b)

			hist := semisort.Query(tc.a, clickUser, semisort.Hash64, eqID).
				JoinEq(tc.b, clickUser).Histogram()
			if len(hist) != len(want) {
				t.Fatalf("join histogram: %d keys, want %d", len(hist), len(want))
			}
			for _, kc := range hist {
				if want[kc.Key] != kc.Count {
					t.Fatalf("join histogram: key %d count %d, want %d", kc.Key, kc.Count, want[kc.Key])
				}
			}

			got := semisort.Query(tc.a, clickUser, semisort.Hash64, eqID).
				JoinEq(tc.b, clickUser).CountDistinct()
			if got != int64(len(want)) {
				t.Fatalf("join count-distinct: %d, want %d", got, len(want))
			}
		})
	}
}

// checkTopK verifies a top-k selection against reference counts without
// pinning tie order: counts non-increasing, every reported count correct,
// and no unselected key outranks the weakest selected one.
func checkTopK(t *testing.T, got []semisort.KeyCount[uint64], k int, ref map[uint64]int64) {
	t.Helper()
	wantLen := min(k, len(ref))
	if len(got) != wantLen {
		t.Fatalf("top-k: %d entries, want %d", len(got), wantLen)
	}
	if wantLen == 0 {
		return
	}
	prev := int64(1) << 62
	sel := make(map[uint64]bool, len(got))
	for _, kc := range got {
		if ref[kc.Key] != kc.Count {
			t.Fatalf("top-k: key %d count %d, want %d", kc.Key, kc.Count, ref[kc.Key])
		}
		if kc.Count > prev {
			t.Fatalf("top-k: counts not non-increasing")
		}
		prev = kc.Count
		sel[kc.Key] = true
	}
	weakest := got[len(got)-1].Count
	for u, c := range ref {
		if c > weakest && !sel[u] {
			t.Fatalf("top-k missed key %d with count %d > weakest selected %d", u, c, weakest)
		}
	}
}

// TestPipelineDedupJoinTopK is the flagship chain: dedup -> equi-join ->
// top-k, fused against hand-composed.
func TestPipelineDedupJoinTopK(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []click
	}{
		{"uniform", pipelineData(120000, 8000, 12), pipelineData(120000, 8000, 13)},
		{"zipf", pipelineZipf(120000, 14), pipelineZipf(120000, 15)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k = 16
			dd := semisort.Dedup(tc.a, clickUser, semisort.Hash64, eqID)
			want := joinRef(dd, tc.b)

			got := semisort.Query(tc.a, clickUser, semisort.Hash64, eqID).
				Dedup().
				JoinEq(tc.b, clickUser).
				TopK(k)
			checkTopK(t, got, k, want)
		})
	}
}

// firstPerKey is the map reference of Dedup: each key's first record, in
// input order.
func firstPerKey(a []click) []click {
	seen := make(map[uint64]bool)
	var out []click
	for _, c := range a {
		if !seen[c.User] {
			seen[c.User] = true
			out = append(out, c)
		}
	}
	return out
}

// checkCounts compares per-key counts with a reference exactly.
func checkCounts(t *testing.T, what string, got []semisort.KeyCount[uint64], want map[uint64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for _, kc := range got {
		if w, ok := want[kc.Key]; !ok || w != kc.Count {
			t.Fatalf("%s: key %d count %d, want %d", what, kc.Key, kc.Count, w)
		}
	}
}

// TestPipelineDedupJoinFold pins the folded Dedup: a pending Dedup feeding
// a join's counting terminal counts that side by key presence, which must
// equal the counting join of the deduplicated side exactly — on either join
// side, over uniform, Zipf 1.2 and all-equal keys and under a constant hash
// (every key collides in every window), at 1 and 2 workers, plain,
// stats-armed and ctx-armed. A stats-armed chain must keep the identities:
// each input record of either side hashed once, and every classified record
// scattered or absorbed.
func TestPipelineDedupJoinFold(t *testing.T) {
	constHash := func(uint64) uint64 { return 42 }
	cases := []struct {
		name string
		a, b []click
		hash func(uint64) uint64
	}{
		{"uniform", pipelineData(40000, 6000, 61), pipelineData(30000, 8000, 62), semisort.Hash64},
		{"zipf-1.2", pipelineZipf(40000, 63), pipelineZipf(30000, 64), semisort.Hash64},
		{"all-equal", pipelineData(20000, 1, 65), pipelineData(10000, 1, 66), semisort.Hash64},
		{"constant-hash", pipelineData(6000, 300, 67), pipelineData(4000, 400, 68), constHash},
	}
	for _, tc := range cases {
		da, db := firstPerKey(tc.a), firstPerKey(tc.b)
		wantA := joinRef(da, tc.b) // Dedup on the left side
		wantB := joinRef(tc.a, db) // on the right side
		wantAB := joinRef(da, db)  // on both
		distinctA := int64(len(da))
		for _, workers := range []int{1, 2} {
			for _, mode := range []string{"plain", "stats", "ctx"} {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", tc.name, workers, mode), func(t *testing.T) {
					rt := semisort.NewRuntime(workers)
					defer rt.Close()
					var st semisort.CallStats
					query := func(x []click) *semisort.Pipeline[click, uint64] {
						opts := []semisort.Option{semisort.WithRuntime(rt)}
						switch mode {
						case "stats":
							st = semisort.CallStats{}
							opts = append(opts, semisort.WithStats(&st))
						case "ctx":
							opts = append(opts, semisort.WithContext(context.Background()))
						}
						return semisort.Query(x, clickUser, tc.hash, eqID, opts...)
					}
					// checkStats checks the identities of the last chain over
					// inputs of n records in total.
					checkStats := func(what string, n int) {
						t.Helper()
						if mode != "stats" {
							return
						}
						if st.HashCalls != int64(n) {
							t.Fatalf("%s: HashCalls = %d, want %d (once per input record)", what, st.HashCalls, n)
						}
						if st.Scattered+st.Absorbed != st.Classified {
							t.Fatalf("%s: Scattered %d + Absorbed %d != Classified %d", what, st.Scattered, st.Absorbed, st.Classified)
						}
					}
					must := func(err error) {
						t.Helper()
						if err != nil {
							t.Fatal(err)
						}
					}
					hist, err := query(tc.a).Dedup().JoinEq(tc.b, clickUser).HistogramE()
					must(err)
					checkCounts(t, "Dedup.JoinEq.Histogram", hist, wantA)
					checkStats("Dedup.JoinEq.Histogram", len(tc.a)+len(tc.b))

					const k = 12
					top, err := query(tc.a).Dedup().JoinEq(tc.b, clickUser).TopKE(k)
					must(err)
					checkTopK(t, top, k, wantA)
					checkStats("Dedup.JoinEq.TopK", len(tc.a)+len(tc.b))

					n, err := query(tc.a).Dedup().JoinEq(tc.b, clickUser).CountDistinctE()
					must(err)
					if n != int64(len(wantA)) {
						t.Fatalf("Dedup.JoinEq.CountDistinct = %d, want %d", n, len(wantA))
					}

					hist, err = query(tc.a).JoinEqP(query(tc.b).Dedup()).HistogramE()
					must(err)
					checkCounts(t, "JoinEqP(Dedup).Histogram", hist, wantB)
					hist, err = query(tc.a).Dedup().JoinEqP(query(tc.b).Dedup()).HistogramE()
					must(err)
					checkCounts(t, "Dedup.JoinEqP(Dedup).Histogram", hist, wantAB)

					n, err = query(tc.a).Dedup().CountDistinctE()
					must(err)
					if n != distinctA {
						t.Fatalf("Dedup.CountDistinct = %d, want %d", n, distinctA)
					}
					checkStats("Dedup.CountDistinct", len(tc.a))
				})
			}
		}
	}
}

// TestPipelineDedupJoinFoldGrouped pins the fold on grouped sides. Both
// sides sorted: the group merge counts a pending Dedup's groups once each.
// One side sorted: the merge cannot run and the sort spent that side's
// hash plane, so its dedup gathers first (hashing nothing) and the join
// hashes only its distinct records.
func TestPipelineDedupJoinFoldGrouped(t *testing.T) {
	a, b := pipelineZipf(50000, 69), pipelineData(30000, 4000, 70)
	da := firstPerKey(a)
	hist := semisort.Query(a, clickUser, semisort.Hash64, eqID).Sort().Dedup().
		JoinEqP(semisort.Query(b, clickUser, semisort.Hash64, eqID).Sort()).Histogram()
	checkCounts(t, "Sort.Dedup.JoinEqP(Sort).Histogram", hist, joinRef(da, b))
	hist = semisort.Query(a, clickUser, semisort.Hash64, eqID).Sort().
		JoinEqP(semisort.Query(b, clickUser, semisort.Hash64, eqID).Sort().Dedup()).Histogram()
	checkCounts(t, "Sort.JoinEqP(Sort.Dedup).Histogram", hist, joinRef(a, firstPerKey(b)))

	var calls atomic.Int64
	countingHash := func(k uint64) uint64 {
		calls.Add(1)
		return semisort.Hash64(k)
	}
	hist = semisort.Query(a, clickUser, countingHash, eqID).Sort().Dedup().JoinEq(b, clickUser).Histogram()
	checkCounts(t, "Sort.Dedup.JoinEq.Histogram", hist, joinRef(da, b))
	if got, want := calls.Load(), int64(len(a)+len(da)+len(b)); got != want {
		t.Fatalf("Sort.Dedup.JoinEq.Histogram called hash %d times, want %d (sort, distinct records, b)", got, want)
	}
}

// TestStrPipelineDedupJoinFold is the fold through QueryStr, which runs the
// same pipeline over the key arena's span plane, at 1 and 2 workers.
func TestStrPipelineDedupJoinFold(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	evs := strCorpus(rng, 40000, 900)
	dims := strCorpus(rng, 3000, 1200)
	inA, dimCount := make(map[string]bool), make(map[string]int64)
	for _, e := range evs {
		inA[e.URL] = true
	}
	for _, d := range dims {
		dimCount[d.URL]++
	}
	want := make(map[string]int64)
	for u := range inA {
		if c := dimCount[u]; c > 0 {
			want[u] = c
		}
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := semisort.NewRuntime(workers)
			defer rt.Close()
			o := semisort.WithRuntime(rt)
			hist := semisort.QueryStr(evs, eventURL, o).Dedup().JoinEq(dims, eventURL).Histogram()
			if len(hist) != len(want) {
				t.Fatalf("Dedup.JoinEq.Histogram: %d keys, want %d", len(hist), len(want))
			}
			for _, kc := range hist {
				if want[kc.Key] != kc.Count {
					t.Fatalf("Dedup.JoinEq.Histogram: %q = %d, want %d", kc.Key, kc.Count, want[kc.Key])
				}
			}
			top := semisort.QueryStr(evs, eventURL, o).Dedup().JoinEq(dims, eventURL).TopK(5)
			for i, kc := range top {
				if want[kc.Key] != kc.Count || (i > 0 && kc.Count > top[i-1].Count) {
					t.Fatalf("Dedup.JoinEq.TopK[%d] = %q/%d, want count %d in descending order", i, kc.Key, kc.Count, want[kc.Key])
				}
			}
			if n := semisort.QueryStr(evs, eventURL, o).Dedup().JoinEq(dims, eventURL).CountDistinct(); n != int64(len(want)) {
				t.Fatalf("Dedup.JoinEq.CountDistinct = %d, want %d", n, len(want))
			}
			if n := semisort.QueryStr(evs, eventURL, o).Dedup().CountDistinct(); n != int64(len(inA)) {
				t.Fatalf("Dedup.CountDistinct = %d, want %d", n, len(inA))
			}
		})
	}
}

// foldDim is the fold tests' dimension side: n/8 distinct keys 8j+1, as in
// the benchmark's pipeline op.
func foldDim(n int) []click {
	dim := make([]click, n/8)
	for j := range dim {
		dim[j] = click{User: uint64(8*j + 1), Seq: j}
	}
	return dim
}

// TestPipelineDedupFoldOneSweep pins that the fold happened: at a size the
// join solves in one distribution level, the chain classifies each record
// of either side exactly once — no dedup distributes the clicks ahead of
// the join — and hashes each once. The folded Dedup runs nothing, so the
// stage record has no "Dedup" entry.
func TestPipelineDedupFoldOneSweep(t *testing.T) {
	a := pipelineData(1<<17, 1<<17, 74)
	dim := foldDim(len(a))
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			rt := semisort.NewRuntime(procs)
			defer rt.Close()
			var s semisort.CallStats
			p := semisort.Query(a, clickUser, semisort.Hash64, eqID, semisort.WithRuntime(rt), semisort.WithStats(&s)).
				Dedup().JoinEq(dim, clickUser)
			if top := p.TopK(10); len(top) != 10 {
				t.Fatalf("TopK returned %d keys, want 10", len(top))
			}
			n := int64(len(a) + len(dim))
			if s.Classified != n || s.HashCalls != n {
				t.Fatalf("Classified = %d, HashCalls = %d, want %d each (one sweep over both sides)", s.Classified, s.HashCalls, n)
			}
			for _, st := range p.Stats() {
				if st.Op == "Dedup" {
					t.Fatalf("stage record %v holds a Dedup entry for a folded dedup", p.Stats())
				}
			}
		})
	}
}

// TestPipelineDedupJoinTopKAllocs pins the fold's allocation: with no dedup
// output to materialize, a warm chain over 2^17 uniform clicks and a 2^14
// dimension allocates under 3 heap bytes per click (the unfolded chain
// allocated about 12).
func TestPipelineDedupJoinTopKAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	a := pipelineData(1<<17, 1<<17, 75)
	dim := foldDim(len(a))
	rt := semisort.NewRuntime(2)
	defer rt.Close()
	run := func() {
		semisort.Query(a, clickUser, semisort.Hash64, eqID, semisort.WithRuntime(rt)).
			Dedup().JoinEq(dim, clickUser).TopK(10)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	const calls = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / calls / float64(len(a)); per >= 3 {
		t.Fatalf("warm Dedup.JoinEq.TopK allocates %.2f B per click, want under 3", per)
	}
}

// TestPipelineDedupSettles pins the consumers that need the deduplicated
// records: they run the pending Dedup as a stage of its own, so Run, Sort
// and a row-materializing join return exactly the rows of the unfused ops
// over Dedup(a), built from first-occurrence records.
func TestPipelineDedupSettles(t *testing.T) {
	pairF := func(l, r click) semisort.Joined[click] { return semisort.Joined[click]{Left: l, Right: r} }
	b := pipelineData(30000, 12000, 76)
	for _, tc := range []struct {
		name string
		a    []click
	}{
		{"uniform", pipelineData(120000, 9000, 77)},
		{"zipf-1.2", pipelineZipf(120000, 78)},
		{"all-equal", pipelineData(50000, 1, 79)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := make(map[uint64]int)
			for _, c := range firstPerKey(tc.a) {
				first[c.User] = c.Seq
			}
			dd := semisort.Dedup(tc.a, clickUser, semisort.Hash64, eqID)
			q := func() *semisort.Pipeline[click, uint64] {
				return semisort.Query(tc.a, clickUser, semisort.Hash64, eqID)
			}
			if got := q().Dedup().Run(); !slices.Equal(got, dd) {
				t.Fatal("Dedup.Run differs from Dedup")
			}
			sorted := slices.Clone(dd)
			semisort.SortEq(sorted, clickUser, semisort.Hash64, eqID)
			if got := q().Dedup().Sort().Run(); !slices.Equal(got, sorted) {
				t.Fatal("Dedup.Sort.Run differs from SortEq(Dedup)")
			}
			rows := semisort.JoinEq(dd, b, clickUser, clickUser, semisort.Hash64, eqID, pairF)
			if got := q().Dedup().JoinEq(b, clickUser).Run(); !slices.Equal(got, rows) {
				t.Fatal("Dedup.JoinEq.Run differs from JoinEq(Dedup)")
			}
			if len(rows) == 0 {
				t.Fatal("Dedup.JoinEq.Run matched nothing")
			}
			for _, r := range rows {
				if first[r.Left.User] != r.Left.Seq {
					t.Fatalf("joined row keeps seq %d of user %d, want first %d", r.Left.Seq, r.Left.User, first[r.Left.User])
				}
			}
		})
	}
}

// TestPipelineJoinMaterialized pins the row-materializing continuations of a
// staged join: Run (rows as a multiset) and a post-join Dedup riding the
// join's emitted plane (cached hashes plus adopted heavy keys).
func TestPipelineJoinMaterialized(t *testing.T) {
	a := pipelineZipf(60000, 16)
	b := pipelineData(40000, 3000, 17)
	want := joinRef(a, b)

	rows := semisort.Query(a, clickUser, semisort.Hash64, eqID).
		JoinEq(b, clickUser).Run()
	gotCounts := make(map[uint64]int64)
	for _, j := range rows {
		if j.Left.User != j.Right.User {
			t.Fatalf("joined row pairs users %d and %d", j.Left.User, j.Right.User)
		}
		gotCounts[j.Left.User]++
	}
	if len(gotCounts) != len(want) {
		t.Fatalf("join rows cover %d keys, want %d", len(gotCounts), len(want))
	}
	for u, c := range want {
		if gotCounts[u] != c {
			t.Fatalf("join rows: key %d count %d, want %d", u, gotCounts[u], c)
		}
	}

	// Join -> Dedup consumes the join's output plane (hash-plane handoff and
	// heavy-key adoption both exercised); one row per matched key survives.
	dd := semisort.Query(a, clickUser, semisort.Hash64, eqID).
		JoinEq(b, clickUser).Dedup().Run()
	if len(dd) != len(want) {
		t.Fatalf("join+dedup: %d rows, want %d", len(dd), len(want))
	}
	seen := make(map[uint64]bool, len(dd))
	for _, j := range dd {
		if seen[j.Left.User] {
			t.Fatalf("join+dedup kept key %d twice", j.Left.User)
		}
		seen[j.Left.User] = true
	}
}

// TestPipelineJoinDedupOneSidedHeavy pins the join's carried heavy keys:
// when the larger side has a heavy key the other side lacks, the key joins
// no row, so the output plane must not carry it into the dedup stage that
// adopts it. The fused chains must keep the same first row per key as the
// unfused Dedup(JoinEq(a, b)).
func TestPipelineJoinDedupOneSidedHeavy(t *testing.T) {
	a := pipelineData(4096, 1000, 41)
	b := pipelineData(100000, 1000, 42)
	for i := 0; i < len(b); i += 2 {
		b[i].User = 5000 // heavy in b, absent from a
	}
	pairF := func(l, r click) semisort.Joined[click] { return semisort.Joined[click]{Left: l, Right: r} }
	joinedUser := func(j semisort.Joined[click]) uint64 { return j.Left.User }
	want := semisort.Dedup(semisort.JoinEq(a, b, clickUser, clickUser, semisort.Hash64, eqID, pairF),
		joinedUser, semisort.Hash64, eqID)
	for _, tc := range []struct {
		name string
		run  func() ([]semisort.Joined[click], error)
	}{
		{"JoinEq", func() ([]semisort.Joined[click], error) {
			return semisort.Query(a, clickUser, semisort.Hash64, eqID).JoinEq(b, clickUser).Dedup().RunE()
		}},
		{"JoinEqP", func() ([]semisort.Joined[click], error) {
			return semisort.Query(a, clickUser, semisort.Hash64, eqID).
				JoinEqP(semisort.Query(b, clickUser, semisort.Hash64, eqID)).Dedup().RunE()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatalf("join+dedup: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("join+dedup: %d rows, want %d", len(got), len(want))
			}
			first := make(map[uint64][2]int, len(want))
			for _, j := range want {
				first[j.Left.User] = [2]int{j.Left.Seq, j.Right.Seq}
			}
			for _, j := range got {
				if w, ok := first[j.Left.User]; !ok || w != [2]int{j.Left.Seq, j.Right.Seq} {
					t.Fatalf("join+dedup kept key %d as (%d, %d), want %v", j.Left.User, j.Left.Seq, j.Right.Seq, w)
				}
			}
		})
	}
}

// TestPipelineGroupedJoin pins the both-sides-grouped merge fast path
// against the driver join, for rows and for counts.
func TestPipelineGroupedJoin(t *testing.T) {
	a := pipelineZipf(70000, 18)
	b := pipelineData(50000, 2500, 19)
	want := joinRef(a, b)

	rows := semisort.Query(a, clickUser, semisort.Hash64, eqID).Sort().
		JoinEqP(semisort.Query(b, clickUser, semisort.Hash64, eqID).Sort()).
		Run()
	gotCounts := make(map[uint64]int64)
	for _, j := range rows {
		if j.Left.User != j.Right.User {
			t.Fatalf("grouped join pairs users %d and %d", j.Left.User, j.Right.User)
		}
		gotCounts[j.Left.User]++
	}
	if len(gotCounts) != len(want) {
		t.Fatalf("grouped join covers %d keys, want %d", len(gotCounts), len(want))
	}
	for u, c := range want {
		if gotCounts[u] != c {
			t.Fatalf("grouped join: key %d count %d, want %d", u, gotCounts[u], c)
		}
	}

	const k = 8
	top := semisort.Query(a, clickUser, semisort.Hash64, eqID).Sort().
		JoinEqP(semisort.Query(b, clickUser, semisort.Hash64, eqID).Sort()).
		TopK(k)
	checkTopK(t, top, k, want)
}

// TestPipelineGroupedJoinStats pins the grouped join's group match in the
// stats plane: with both sides grouped, the stage that matches the groups
// hashes one head per group of either side and runs eq once per matched
// group (Hash64 is a bijection, so no two keys collide), and its stage
// entry reports exactly those calls.
func TestPipelineGroupedJoinStats(t *testing.T) {
	a := pipelineData(5000, 700, 81)
	b := pipelineData(3000, 900, 82)
	keysA, keysB := map[uint64]bool{}, map[uint64]bool{}
	for _, c := range a {
		keysA[c.User] = true
	}
	matched := 0
	for _, c := range b {
		if keysA[c.User] && !keysB[c.User] {
			matched++
		}
		keysB[c.User] = true
	}
	hashes := int64(len(keysA) + len(keysB))
	for _, procs := range []int{1, 2} {
		rt := semisort.NewRuntime(procs)
		for _, op := range []string{"CountDistinct", "Run"} {
			var s semisort.CallStats
			p := semisort.Query(a, clickUser, semisort.Hash64, eqID, semisort.WithRuntime(rt), semisort.WithStats(&s)).Sort().
				JoinEqP(semisort.Query(b, clickUser, semisort.Hash64, eqID, semisort.WithRuntime(rt)).Sort())
			if op == "Run" {
				p.Run()
			} else if got := p.CountDistinct(); got != int64(matched) {
				t.Fatalf("procs=%d: CountDistinct = %d, want %d", procs, got, matched)
			}
			var st *semisort.CallStats
			for i := range p.Stats() {
				if e := p.Stats()[i]; e.Op == op {
					st = &e.Stats
				}
			}
			if st == nil {
				t.Fatalf("procs=%d: no %s entry in %v", procs, op, p.Stats())
			}
			if st.HashCalls != hashes || st.EqCalls != int64(matched) {
				t.Fatalf("procs=%d: %s stage read HashCalls %d, EqCalls %d; want %d (groups of a and b), %d (matched groups)",
					procs, op, st.HashCalls, st.EqCalls, hashes, matched)
			}
		}
		rt.Close()
	}
}

func TestPipelineDistinctShortcuts(t *testing.T) {
	a := pipelineZipf(80000, 20)
	distinct := semisort.CountDistinct(a, clickUser, semisort.Hash64, eqID)

	p := semisort.Query(a, clickUser, semisort.Hash64, eqID).Dedup()
	if got := p.CountDistinct(); got != distinct {
		t.Fatalf("dedup+count-distinct: %d, want %d", got, distinct)
	}

	hist := semisort.Query(a, clickUser, semisort.Hash64, eqID).Dedup().Histogram()
	if len(hist) != int(distinct) {
		t.Fatalf("dedup+histogram: %d keys, want %d", len(hist), distinct)
	}
	for _, kc := range hist {
		if kc.Count != 1 {
			t.Fatalf("dedup+histogram: key %d count %d, want 1", kc.Key, kc.Count)
		}
	}

	groups := semisort.Query(a, clickUser, semisort.Hash64, eqID).Sort().CountDistinct()
	if groups != distinct {
		t.Fatalf("sort+count-distinct: %d, want %d", groups, distinct)
	}
}

// TestPipelineConstantHash drives the MaxDepth fallback through every fused
// stage: a constant hash makes all keys collide in every window.
func TestPipelineConstantHash(t *testing.T) {
	a := pipelineData(30000, 40, 21)
	b := pipelineData(20000, 60, 22)
	constHash := func(uint64) uint64 { return 42 }
	want := joinRef(semisort.Dedup(a, clickUser, constHash, eqID), b)

	got := semisort.Query(a, clickUser, constHash, eqID).
		Dedup().
		JoinEq(b, clickUser).
		Histogram()
	if len(got) != len(want) {
		t.Fatalf("constant-hash pipeline: %d keys, want %d", len(got), len(want))
	}
	for _, kc := range got {
		if want[kc.Key] != kc.Count {
			t.Fatalf("constant-hash pipeline: key %d count %d, want %d", kc.Key, kc.Count, want[kc.Key])
		}
	}
}

// TestPipelineWorkerDeterminism pins the fused results as pure functions of
// (input, seed): identical at 1, 3, and 7 workers.
func TestPipelineWorkerDeterminism(t *testing.T) {
	a := pipelineZipf(100000, 23)
	b := pipelineData(80000, 6000, 24)
	type result struct {
		top    []semisort.KeyCount[uint64]
		sorted []click
		rows   int
	}
	runAt := func(workers int) result {
		rt := semisort.NewRuntime(workers)
		defer rt.Close()
		opt := semisort.WithRuntime(rt)
		top := semisort.Query(a, clickUser, semisort.Hash64, eqID, opt).
			Dedup().
			JoinEq(b, clickUser).
			TopK(12)
		sorted, _ := semisort.Query(a, clickUser, semisort.Hash64, eqID, opt).Sort().Groups()
		rows := semisort.Query(a, clickUser, semisort.Hash64, eqID, opt).
			JoinEq(b, clickUser).Run()
		return result{top: top, sorted: sorted, rows: len(rows)}
	}
	base := runAt(1)
	for _, w := range []int{3, 7} {
		r := runAt(w)
		if len(r.top) != len(base.top) {
			t.Fatalf("%d workers: top-k length %d, want %d", w, len(r.top), len(base.top))
		}
		for i := range r.top {
			if r.top[i] != base.top[i] {
				t.Fatalf("%d workers: top-k[%d] = %+v, want %+v", w, i, r.top[i], base.top[i])
			}
		}
		for i := range r.sorted {
			if r.sorted[i] != base.sorted[i] {
				t.Fatalf("%d workers: sorted[%d] differs", w, i)
			}
		}
		if r.rows != base.rows {
			t.Fatalf("%d workers: %d join rows, want %d", w, r.rows, base.rows)
		}
	}
}

// TestPipelineHashOnce is the fusion contract test: the flagship chain calls
// the user hash EXACTLY once per input record of either relation — dedup
// hashes a, its output plane rides through the join, and the join hashes
// only b.
func TestPipelineHashOnce(t *testing.T) {
	a := pipelineZipf(150000, 25)
	b := pipelineData(100000, 8000, 26)
	var calls atomic.Int64
	countingHash := func(k uint64) uint64 {
		calls.Add(1)
		return semisort.Hash64(k)
	}

	top := semisort.Query(a, clickUser, countingHash, eqID).
		Dedup().
		JoinEq(b, clickUser).
		TopK(10)
	if len(top) == 0 {
		t.Fatal("hash-once pipeline returned nothing")
	}
	if got, want := calls.Load(), int64(len(a)+len(b)); got != want {
		t.Fatalf("pipeline called hash %d times, want exactly %d (once per input record)", got, want)
	}

	// Sort -> Groups: exactly once per record too (the sort's plane feeds
	// the boundary scan, which hashes nothing).
	calls.Store(0)
	if _, g := semisort.Query(a, clickUser, countingHash, eqID).Sort().Groups(); len(g) == 0 {
		t.Fatal("sort pipeline returned no groups")
	}
	if got, want := calls.Load(), int64(len(a)); got != want {
		t.Fatalf("sort pipeline called hash %d times, want exactly %d", got, want)
	}

	// Grouped join: one call per record for the two sorts, then one per
	// GROUP for the merge — strictly fewer than one per record again.
	calls.Store(0)
	rows := semisort.Query(a, clickUser, countingHash, eqID).Sort().
		JoinEqP(semisort.Query(b, clickUser, countingHash, eqID).Sort()).
		CountDistinct()
	if rows == 0 {
		t.Fatal("grouped join matched nothing")
	}
	gA := semisort.CountDistinct(a, clickUser, semisort.Hash64, eqID)
	gB := semisort.CountDistinct(b, clickUser, semisort.Hash64, eqID)
	if got, bound := calls.Load(), int64(len(a)+len(b))+gA+gB; got > bound {
		t.Fatalf("grouped-join pipeline called hash %d times, want <= %d (records + groups)", got, bound)
	}
}

func TestPipelineSingleUse(t *testing.T) {
	p := semisort.Query([]click{{User: 1}}, clickUser, semisort.Hash64, eqID)
	_ = p.Run()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("reusing a consumed pipeline did not panic")
		}
		ce, ok := r.(*semisort.PipelineConsumedError)
		if !ok {
			t.Fatalf("panic value = %T %v, want *PipelineConsumedError", r, r)
		}
		if ce.Op != "Histogram" {
			t.Fatalf("Op = %q, want the offending terminal %q", ce.Op, "Histogram")
		}
		if !errors.Is(ce, semisort.ErrPipelineConsumed) {
			t.Fatal("PipelineConsumedError does not wrap ErrPipelineConsumed")
		}
	}()
	_ = p.Histogram()
}

// FuzzPipelineJoin cross-checks the fused join pipeline against a map
// reference on arbitrary small inputs.
func FuzzPipelineJoin(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{3, 4, 9})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{7, 7, 7, 7}, []byte{7, 7})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := make([]click, len(ab))
		for i, v := range ab {
			a[i] = click{User: uint64(v % 16), Seq: i}
		}
		b := make([]click, len(bb))
		for i, v := range bb {
			b[i] = click{User: uint64(v % 16), Seq: i}
		}
		want := joinRef(a, b)
		hist := semisort.Query(a, clickUser, semisort.Hash64, eqID).
			JoinEq(b, clickUser).Histogram()
		if len(hist) != len(want) {
			t.Fatalf("fuzz join histogram: %d keys, want %d", len(hist), len(want))
		}
		for _, kc := range hist {
			if want[kc.Key] != kc.Count {
				t.Fatalf("fuzz join histogram: key %d count %d, want %d", kc.Key, kc.Count, want[kc.Key])
			}
		}
		total := int64(0)
		for _, c := range want {
			total += c
		}
		rows := semisort.Query(a, clickUser, semisort.Hash64, eqID).
			Dedup().Sort().
			JoinEq(b, clickUser).Run()
		dd := semisort.Dedup(a, clickUser, semisort.Hash64, eqID)
		wantRows := joinRef(dd, b)
		wantTotal := int64(0)
		for _, c := range wantRows {
			wantTotal += c
		}
		if int64(len(rows)) != wantTotal {
			t.Fatalf("fuzz dedup+sort+join: %d rows, want %d", len(rows), wantTotal)
		}
	})
}
