package semisort

import "repro/internal/rel"

// Dedup returns one record per distinct key of a: the key's first record in
// input order, so payloads beyond the key survive deduplication with
// first-writer-wins semantics. The output order is deterministic for a
// fixed seed but unspecified. The input is not modified.
//
// Dedup runs on the semisort distribution pipeline (one fused classify
// sweep per level, heavy keys detected by sampling), so hash is called
// exactly once per record; every duplicate of a frequent key beyond the
// first is dropped where it stands, never counted or moved, making the work
// track the distinct-key count rather than the duplicate mass.
func Dedup[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) []R {
	out, err := DedupE(a, key, hash, eq, opts...)
	mustCall(err)
	return out
}

// DedupE is Dedup with an error return for cancellable calls; see SortEqE
// for the contract. On cancellation it returns (nil, ctx.Err()) and the
// input is untouched (Dedup never modifies it).
func DedupE[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) (out []R, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return rel.Dedup(a, key, hash, eq, cfg), nil
}

// Distinct is Dedup applied to bare keys: the distinct values of a, each
// from its first occurrence, in a deterministic (unspecified) order.
func Distinct[K any](a []K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) []K {
	out, err := DistinctE(a, hash, eq, opts...)
	mustCall(err)
	return out
}

// DistinctE is Distinct with an error return for cancellable calls; see
// SortEqE for the contract.
func DistinctE[K any](a []K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) (out []K, err error) {
	return DedupE(a, func(k K) K { return k }, hash, eq, opts...)
}

// JoinEq computes the inner equi-join of a and b: one join(r, s) row for
// every pair of records with eq(keyA(r), keyB(s)). Both relations are
// partitioned against one shared sample per recursion level, so matching
// buckets join in cache; records of frequent keys are joined by broadcast
// without either side's copies ever being moved. hash is called exactly
// once per record of either relation. Row order is deterministic for a
// fixed seed but unspecified. Neither input is modified.
func JoinEq[R, S, K, T any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, join func(R, S) T, opts ...Option) []T {
	out, err := JoinEqE(a, b, keyA, keyB, hash, eq, join, opts...)
	mustCall(err)
	return out
}

// JoinEqE is JoinEq with an error return for cancellable calls; see
// SortEqE for the contract. The broadcast loops check the context between
// cross-product rows, so even a skewed join with huge heavy-key products
// cancels promptly. On cancellation it returns (nil, ctx.Err()) and
// neither input is modified.
func JoinEqE[R, S, K, T any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, join func(R, S) T, opts ...Option) (out []T, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return rel.Join(a, b, keyA, keyB, hash, eq, join, cfg), nil
}

// SemiJoinEq returns the records of a whose key appears in b — each
// a-record at most once, however many b-records match it. Order is
// deterministic for a fixed seed but unspecified. Neither input is
// modified.
func SemiJoinEq[R, S, K any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, opts ...Option) []R {
	out, err := SemiJoinEqE(a, b, keyA, keyB, hash, eq, opts...)
	mustCall(err)
	return out
}

// SemiJoinEqE is SemiJoinEq with an error return for cancellable calls;
// see SortEqE for the contract.
func SemiJoinEqE[R, S, K any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, opts ...Option) (out []R, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return rel.SemiJoin(a, b, keyA, keyB, hash, eq, cfg), nil
}

// AntiJoinEq returns the records of a whose key does not appear in b. Order
// is deterministic for a fixed seed but unspecified. Neither input is
// modified.
func AntiJoinEq[R, S, K any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, opts ...Option) []R {
	out, err := AntiJoinEqE(a, b, keyA, keyB, hash, eq, opts...)
	mustCall(err)
	return out
}

// AntiJoinEqE is AntiJoinEq with an error return for cancellable calls;
// see SortEqE for the contract.
func AntiJoinEqE[R, S, K any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, opts ...Option) (out []R, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return rel.AntiJoin(a, b, keyA, keyB, hash, eq, cfg), nil
}

// CountDistinct returns the number of distinct keys of a without
// materializing them: levels count the heavy keys their samples promote
// (those keys' records are absorbed with no payload at all), leaves count
// hash-table insertions. hash is called exactly once per record. The input
// is not modified.
func CountDistinct[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) int64 {
	n, err := CountDistinctE(a, key, hash, eq, opts...)
	mustCall(err)
	return n
}

// CountDistinctE is CountDistinct with an error return for cancellable
// calls; see SortEqE for the contract. On cancellation it returns
// (0, ctx.Err()).
func CountDistinctE[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) (n int64, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return 0, aerr
	}
	defer call.done(&err)
	return rel.CountDistinct(a, key, hash, eq, cfg), nil
}

// TopK returns the k most frequent keys of a with their occurrence counts,
// ordered by descending count (ties broken deterministically for a fixed
// seed). It runs Histogram's count-only pipeline and then selects over the
// distinct keys — never over the input — so k much smaller than the
// distinct count costs one histogram plus an O(distinct) bounded-heap
// selection. k exceeding the distinct count returns every key. The input is
// not modified.
func TopK[R, K any](a []R, k int, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) []KeyCount[K] {
	out, err := TopKE(a, k, key, hash, eq, opts...)
	mustCall(err)
	return out
}

// TopKE is TopK with an error return for cancellable calls; see SortEqE
// for the contract.
func TopKE[R, K any](a []R, k int, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) (out []KeyCount[K], err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	kv := rel.TopK(a, k, key, hash, eq, cfg)
	out = make([]KeyCount[K], len(kv))
	for i, e := range kv {
		out[i] = KeyCount[K]{Key: e.Key, Count: e.Value}
	}
	return out, nil
}
