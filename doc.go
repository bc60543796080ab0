// Package semisort provides high-performance, flexible parallel semisort,
// histogram, collect-reduce, and database-style relational bulk operators
// (deduplication, equi-joins, distinct counting, top-k), reproducing
// "High-Performance and Flexible Parallel Algorithms for Semisort and
// Related Problems" (Dong, Wu, Wang, Dhulipala, Gu, Sun; SPAA 2023).
//
// Semisort reorders an array of records so that records with equal keys are
// contiguous — without requiring the keys to come out in sorted order. Many
// parallel algorithms (graph analytics, geometry, string processing, group-
// by/aggregation) need exactly this, and semisort is asymptotically cheaper
// than sorting.
//
// # Interface
//
// Following the paper's flexible interface, the algorithms accept any key
// type K together with
//
//   - a key extractor key: R -> K,
//   - a user hash function h: K -> uint64 (use Hash64/HashString for real
//     hashing, or Identity64 for the paper's faster integer variants
//     "Ours-i" when keys are already well-spread integers),
//   - an equality test (SortEq, semisort=) or a less-than test (SortLess,
//     semisort<), whichever the key type supports.
//
// All algorithms here are stable (equal keys keep their input order), race
// free, and internally deterministic: for a fixed seed the output is
// identical regardless of scheduling or GOMAXPROCS.
//
// # Quick start
//
//	pairs := []semisort.Pair[uint64, string]{ ... }
//	semisort.SortEq(pairs,
//	    func(p semisort.Pair[uint64, string]) uint64 { return p.Key },
//	    semisort.Hash64,
//	    func(a, b uint64) bool { return a == b },
//	)
//
// Histogram and CollectReduce share the interface and add a map function
// and a reduce monoid; because the algorithms are stable, the monoid needs
// to be associative but not commutative.
//
// # Relational operators
//
// The same (key, hash, eq) interface drives the relational family — the
// bulk database operations the paper motivates — all running on the one
// distribution pipeline (hash called exactly once per record, frequent
// keys handled where they stand, deterministic for a fixed seed):
//
//	unique := semisort.Dedup(events, eventID, semisort.Hash64, eqU64)  // first occurrence wins
//	rows   := semisort.JoinEq(unique, users, eventUser, userID, semisort.Hash64, eqU64,
//	    func(e event, u user) row { return row{e, u} })
//	inBoth := semisort.SemiJoinEq(unique, users, eventUser, userID, semisort.Hash64, eqU64)
//	orphan := semisort.AntiJoinEq(unique, users, eventUser, userID, semisort.Hash64, eqU64)
//	nUsers := semisort.CountDistinct(rows, rowUser, semisort.Hash64, eqU64)
//	top    := semisort.TopK(rows, 10, rowUser, semisort.Hash64, eqU64)
//
// See examples/dedupjoin for a full pipeline against map-based baselines.
//
// # Fused pipelines
//
// Composing those ops by hand re-hashes every intermediate result: Dedup
// hashes its input, JoinEq re-hashes the survivors, TopK hashes every joined
// row. Query fuses a chain of stages (Dedup, Sort/GroupBy, JoinEq) into one
// pipeline that calls the user hash at most once per input record — each
// stage hands the next its cached hash plane, its promoted heavy keys, and
// its grouped/distinct shape:
//
//	top := semisort.Query(clicks, clickUser, semisort.Hash64, eqU64).
//	    Dedup().               // deferred: the join only needs key presence
//	    JoinEq(imps, impUser). // hashes clicks and imps once each
//	    TopK(10)               // counts matches; no joined row materialized
//
// Dedup and JoinEq are deferred stages, planned by their consumer: the
// counting terminal above counts the clicks side by key presence in the
// join's one classify sweep, so the dedup never materializes its output,
// while a consumer that needs the deduplicated records (Run, Sort, a join
// that builds rows) runs it first as a stage of its own.
//
// A pipeline keys its whole chain by the one key given to Query, is
// single-use (stages consume their receiver; terminals release pooled
// state; reuse panics), and never modifies the caller's slice. A join
// followed by a counting terminal (Histogram, TopK, CountDistinct) never
// materializes the joined rows — under skew the join output is quadratic in
// the per-key multiplicities, and counting per-key match products instead
// turns seconds into milliseconds. See examples/pipeline for fused-versus-
// unfused comparisons and DESIGN.md ("Pipeline fusion") for what fuses and
// what falls back.
//
// # Runtime
//
// All calls execute on a persistent parallel runtime: a fixed pool of
// long-lived worker goroutines plus a buffer arena that recycles every
// transient allocation (the O(n) auxiliary array, counting matrices, cached
// bucket ids, sample tables, base-case hash tables). By default calls share
// one process-wide runtime, so repeated calls are allocation-free in steady
// state — the regime a high-throughput service runs in. A service that
// wants an explicitly sized pool creates its own once and passes it to
// every call:
//
//	rt := semisort.NewRuntime(16)
//	semisort.SortEq(pairs, key, semisort.Hash64, eq, semisort.WithRuntime(rt))
//
// The runtime never affects results: for a fixed seed the output is
// identical at any pool size and any GOMAXPROCS.
//
// # Failure semantics
//
// A shared runtime must survive bad requests, so faults are contained at
// the call: a panic in any user callback (key, hash, eq, less, map,
// combine, join) — on whatever worker goroutine it fired — re-raises on
// the calling goroutine as a typed *PanicError carrying the original
// value and the panicking goroutine's stack. The pool workers survive,
// and everything the failed call leased from the arena is discarded
// rather than re-pooled, so the next call on the same runtime sees clean
// state. Recover it at a service boundary to fail one request instead of
// the process.
//
// For cancellation, pass WithContext and use the error-returning forms
// (every op and pipeline terminal has one — SortEqE, HistogramE, DedupE,
// JoinEqE, RunE, ...); the engine checks the context at its level
// boundaries and classify chunks, unwinds, discards the call's leases,
// and returns ctx.Err():
//
//	ctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
//	defer cancel()
//	top, err := semisort.TopKE(events, 10, key, semisort.Hash64, eqU64,
//	    semisort.WithRuntime(rt), semisort.WithContext(ctx))
//	if errors.Is(err, context.DeadlineExceeded) { ... } // rt still healthy
//
// A service can additionally bound concurrent calls with
// rt.SetInflightLimit(n): excess calls wait (context-aware) at the door
// instead of piling onto the pool. See examples/service for the full
// service shape and DESIGN.md ("Failure semantics") for the mechanism.
//
// # Streaming ingestion
//
// The ops above are bulk calls; a service receives records one at a time.
// The streaming front end coalesces concurrent Submits into driver-sized
// batches (flushed at WithBatchSize records or after WithMaxWait) and
// keeps cross-batch state — a dedup seen-set, a top-k count sketch, a
// join build side — so the incremental answer equals the one-shot answer
// on the concatenated input, whatever the batch boundaries:
//
//	s := semisort.NewDedupStream[event, uint64](eventID, semisort.Hash64, eqU64,
//	    semisort.WithBatchSize(4096), semisort.WithMaxWait(10*time.Millisecond))
//	// any number of producer goroutines:
//	res := <-s.Submit(e)           // one StreamResult per record
//	if res.Err == nil && res.Out.Kept { ... } // first occurrence across all batches
//	n := s.Distinct()              // streaming CountDistinct, committed state only
//	err := s.Close()               // drain, flush the tail, settle every channel
//
// NewTopKStream tracks per-key weights the same way (WithDecay gives an
// exponentially-decayed window), and NewJoinStream joins streamed probe
// records against a build side committed incrementally with AddBuild.
//
// State advances by epoch commit: a batch's delta is applied only after
// its driver call returned cleanly, so a callback panic or cancellation
// mid-batch fails exactly that batch's records — each result channel gets
// a *BatchError wrapping the typed cause — and the state stays equal to a
// replay of the committed batches. A full queue applies backpressure by
// default; WithShedding fails fast with ErrQueueFull instead, and records
// submitted after Close get ErrStreamClosed (both errors.Is-matchable).
// See examples/stream for a multi-producer pipeline surviving a
// mid-stream fault, and DESIGN.md ("Streaming ingestion & cross-batch
// state") for the mechanism.
//
// # Observability
//
// Every layer reports without being asked to pay for it: per-call stats,
// runtime/stream gauges, and an HTTP/expvar debug surface are all
// branch-on-nil when off and allocation-free in steady state when on.
// WithStats fills a CallStats with one call's counters — levels planned,
// records classified/scattered/absorbed, bytes moved, the hash/probe/eq
// contract counts, the leaf counts, per-phase wall time — and on a pipeline
// additionally records per-stage stats:
//
//	var s semisort.CallStats
//	p := semisort.Query(clicks, clickUser, semisort.Hash64, eqU64,
//	    semisort.WithStats(&s))
//	out := p.Dedup().Sort().Run()
//	for _, st := range p.Stats() { ... }   // per-stage CallStats, sums to s
//
// The runtime and every stream expose lifetime gauges via a lock-free
// Metrics() snapshot (jobs and chunk stealing, contained panics,
// cancellations, admission waits and inflight; queue depth and high water,
// per-reason flush counts, batch-size and commit-latency histograms).
// Publish mounts it all as one JSON debug page plus expvars:
//
//	m := rt.Metrics()                      // e.g. m.Inflight, m.Cancellations
//	reg := semisort.Publish(rt)            // expvar + http.Handler
//	reg.Add("ingest", func() any { return s.Metrics() })
//	mux.Handle("/debug/semisort", reg)
//
// CPU profiles split the engine's time by function (classify, groupEq,
// absorbLeaf), and pool workers carry the pprof label
// semisort=pool-worker. See examples/service for the debug surface mounted
// next to net/http/pprof, and DESIGN.md ("Observability") for counter
// semantics and snapshot consistency rules.
//
// See DESIGN.md for the algorithm internals and the runtime architecture,
// and EXPERIMENTS.md for the reproduction of the paper's evaluation.
package semisort
