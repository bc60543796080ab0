package semisort

import "repro/internal/collect"

// KeyCount is one histogram entry.
type KeyCount[K any] struct {
	Key   K
	Count int64
}

// KeyValue is one collect-reduce result entry.
type KeyValue[K, E any] struct {
	Key   K
	Value E
}

// Histogram returns the number of occurrences of each distinct key of a
// (Section 2.1's histogram problem). The input is not modified. Keys are
// emitted in a deterministic order for a fixed seed.
//
// Histogram runs on the same distribution pipeline as SortEq (one fused
// classify sweep per level, heavy keys detected by sampling), so hash is
// called exactly once per record per call; frequent keys are counted where
// they stand and never moved.
func Histogram[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) []KeyCount[K] {
	out, err := HistogramE(a, key, hash, eq, opts...)
	mustCall(err)
	return out
}

// HistogramE is Histogram with an error return for cancellable calls; see
// SortEqE for the contract. On cancellation it returns (nil, ctx.Err())
// and the input is untouched (Histogram never modifies it).
func HistogramE[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) (out []KeyCount[K], err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return collect.HistogramAs(a, nil, key, hash, eq, toKeyCount[K], cfg), nil
}

// toKeyCount and toKeyValue build the public result entries inside the
// engine's pack pass (collect.HistogramAs, collect.ReduceAs), so each result
// is written once.
func toKeyCount[K any](kv collect.KV[K, int64]) KeyCount[K] {
	return KeyCount[K]{Key: kv.Key, Count: kv.Value}
}

func toKeyValue[K, E any](kv collect.KV[K, E]) KeyValue[K, E] {
	return KeyValue[K, E]{Key: kv.Key, Value: kv.Value}
}

// CollectReduce computes, for each distinct key, the reduction of the
// mapped values of that key's records: combine(... combine(combine(id,
// M(r1)), M(r2)) ...) in input order (Section 2.1's collect-reduce).
// combine must be associative with identity id; because the algorithm is
// stable, it does not need to be commutative. The input is not modified.
// Like Histogram, it shares the semisort distribution pipeline: hash runs
// exactly once per record per call, and records of frequent keys are
// reduced in place instead of being moved.
func CollectReduce[R, K, E any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool,
	mapf func(R) E, combine func(E, E) E, id E, opts ...Option) []KeyValue[K, E] {
	out, err := CollectReduceE(a, key, hash, eq, mapf, combine, id, opts...)
	mustCall(err)
	return out
}

// CollectReduceE is CollectReduce with an error return for cancellable
// calls; see SortEqE for the contract. On cancellation it returns
// (nil, ctx.Err()) and the input is untouched.
func CollectReduceE[R, K, E any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool,
	mapf func(R) E, combine func(E, E) E, id E, opts ...Option) (out []KeyValue[K, E], err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return collect.ReduceAs(a, nil, collect.Reducer[R, K, E]{
		Key:      key,
		Hash:     hash,
		Eq:       eq,
		Map:      mapf,
		Combine:  combine,
		Identity: id,
	}, toKeyValue[K, E], cfg), nil
}
