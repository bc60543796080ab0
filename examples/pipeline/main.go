// Pipeline fusion: the hash-once-per-pipeline query API. This example runs
// the same analytics twice — once as hand-composed relational ops (each op a
// standalone call that re-hashes its input from scratch) and once as a fused
// pipeline (semisort.Query: each stage hands the next its cached hash plane,
// its promoted heavy keys, and its grouped/distinct shape) — and compares
// wall-clock time and results:
//
//  1. dedup→join→top-k: reduce a click stream to one record per user (the
//     user's first click wins), equi-join those users against an impression
//     stream on the user id, rank the top-10 users by impression count.
//     Fused, neither the deduplicated clicks nor the join's output rows are
//     materialized: the counting terminal counts the click side by user
//     presence and multiplies per-key match counts. (A pipeline has one key
//     for its whole chain — dedup and join here both key on the user id.)
//
//  2. skewed self-join→top-k: join two zipfian streams on their keys. The
//     join output is quadratic in the per-key multiplicities (hundreds of
//     millions of rows from 100k-record inputs); the unfused composition
//     must materialize and then re-scan them all, while the fused pipeline
//     answers from per-key counts in milliseconds.
//
// Both paths produce identical rankings; the fused one calls the user hash
// exactly once per input record.
package main

import (
	"fmt"
	"time"

	semisort "repro"
	"repro/internal/dist"
)

type click struct {
	ID   uint64 // event id: duplicated by retries
	User uint64 // user id
}

func main() {
	const n = 4_000_000

	ids := dist.Keys64(n, dist.Spec{Kind: dist.Uniform, Param: float64(3 * n / 4)}, 7)
	users := dist.Keys64(n, dist.Spec{Kind: dist.Uniform, Param: float64(n)}, 8)
	a := make([]click, n)
	for i := range a {
		a[i] = click{ID: ids[i], User: users[i]}
	}
	bUsers := dist.Keys64(n, dist.Spec{Kind: dist.Uniform, Param: float64(n)}, 9)
	b := make([]click, n)
	for i := range b {
		b[i] = click{ID: uint64(i), User: bUsers[i]}
	}
	clickID := func(c click) uint64 { return c.ID }
	clickUser := func(c click) uint64 { return c.User }
	eqU64 := func(x, y uint64) bool { return x == y }

	// Unfused: three standalone ops. Dedup hashes every record of a; JoinEq
	// re-hashes the deduped records and hashes b; TopK materializes every
	// joined row first, then hashes each one a third time to count it.
	start := time.Now()
	deduped := semisort.Dedup(a, clickUser, semisort.Hash64, eqU64)
	rows := semisort.JoinEq(deduped, b, clickUser, clickUser, semisort.Hash64, eqU64,
		func(x, y click) [2]click { return [2]click{x, y} })
	topUnfused := semisort.TopK(rows, 10,
		func(r [2]click) uint64 { return r[0].User }, semisort.Hash64, eqU64)
	tUnfused := time.Since(start)

	// Fused: one pipeline. Dedup is deferred to its consumer, and TopK only
	// needs to know whether each user clicked, so the join counts a by key
	// presence in the same sweep that hashes a and b once each; TopK counts
	// per-key match products without ever materializing a joined row.
	start = time.Now()
	topFused := semisort.Query(a, clickUser, semisort.Hash64, eqU64).
		Dedup().
		JoinEq(b, clickUser).
		TopK(10)
	tFused := time.Since(start)

	// Both rankings are keyed by the user id (the fused JoinEq keys joined
	// rows by the join key); ties may order differently, so compare counts.
	if len(topFused) != len(topUnfused) {
		panic("fused and unfused top-k disagree on length")
	}
	for i := range topFused {
		if topFused[i].Count != topUnfused[i].Count {
			panic("fused and unfused top-k disagree")
		}
	}
	fmt.Printf("dedup-join-topk over %d x %d records (%d joined rows unfused):\n",
		n, n, len(rows))
	for _, kc := range topFused {
		fmt.Printf("  user %8d: %d joined rows\n", kc.Key, kc.Count)
	}
	fmt.Printf("unfused (Dedup; JoinEq; TopK): %8.1f ms\n", tUnfused.Seconds()*1e3)
	fmt.Printf("fused   (Query pipeline):      %8.1f ms\n\n", tFused.Seconds()*1e3)

	// Skewed self-join: both sides zipfian, so a handful of hot keys match
	// combinatorially. The unfused path pays for every one of those rows.
	const m = 50_000
	za := dist.Keys64(m, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, 11)
	zb := dist.Keys64(m, dist.Spec{Kind: dist.Zipfian, Param: 1.2}, 12)
	sa := make([]click, m)
	sb := make([]click, m)
	for i := 0; i < m; i++ {
		sa[i] = click{ID: za[i]}
		sb[i] = click{ID: zb[i]}
	}

	start = time.Now()
	zrows := semisort.JoinEq(sa, sb, clickID, clickID, semisort.Hash64, eqU64,
		func(x, y click) [2]click { return [2]click{x, y} })
	ztopUnfused := semisort.TopK(zrows, 5,
		func(r [2]click) uint64 { return r[0].ID }, semisort.Hash64, eqU64)
	tzUnfused := time.Since(start)

	start = time.Now()
	ztopFused := semisort.Query(sa, clickID, semisort.Hash64, eqU64).
		JoinEq(sb, clickID).
		TopK(5)
	tzFused := time.Since(start)

	for i := range ztopFused {
		if ztopFused[i].Count != ztopUnfused[i].Count {
			panic("fused and unfused skewed top-k disagree")
		}
	}
	fmt.Printf("skewed self-join-topk over %d x %d records (%d joined rows unfused):\n",
		m, m, len(zrows))
	for _, kc := range ztopFused {
		fmt.Printf("  key %8d: %d joined rows\n", kc.Key, kc.Count)
	}
	fmt.Printf("unfused (JoinEq; TopK): %8.1f ms\n", tzUnfused.Seconds()*1e3)
	fmt.Printf("fused   (Query pipeline): %6.1f ms\n", tzFused.Seconds()*1e3)
}
