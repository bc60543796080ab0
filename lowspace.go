package semisort

import "repro/internal/core"

// SortEqInPlace is the space-efficient variant of SortEq sketched in the
// paper's conclusion (Section 6): distribution happens inside the input
// array via cycle-chasing permutation. Extra space is 8 bytes per record —
// the hash-once array, permuted along with the records so the user
// closures still run once per record — plus O(P*alpha) per-worker scratch
// and the bucket counters; SortEq by comparison takes a full n-record
// auxiliary array plus two hash arrays (24 bytes per record on top of
// that for 16-byte records).
//
// Trade-offs versus SortEq, as the paper predicts for in-place
// distribution: the result is NOT stable (equal keys are contiguous but in
// arbitrary relative order), and the top-level permutation is sequential,
// so peak throughput is lower. Output is still deterministic for a fixed
// seed. Use it when the extra footprint of SortEq is the bottleneck.
func SortEqInPlace[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) {
	mustCall(SortEqInPlaceE(a, key, hash, eq, opts...))
}

// SortEqInPlaceE is SortEqInPlace with an error return for cancellable
// calls; see SortEqE for the contract. On cancellation a is a valid but
// unspecified permutation of its input.
func SortEqInPlaceE[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) (err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return aerr
	}
	defer call.done(&err)
	core.SortEqInPlace(a, key, hash, eq, cfg)
	return nil
}

// SortLessInPlace is the space-efficient variant of SortLess; see
// SortEqInPlace for the trade-offs.
func SortLessInPlace[R, K any](a []R, key func(R) K, hash func(K) uint64, less func(K, K) bool, opts ...Option) {
	mustCall(SortLessInPlaceE(a, key, hash, less, opts...))
}

// SortLessInPlaceE is SortLessInPlace with an error return for cancellable
// calls; see SortEqE for the contract.
func SortLessInPlaceE[R, K any](a []R, key func(R) K, hash func(K) uint64, less func(K, K) bool, opts ...Option) (err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return aerr
	}
	defer call.done(&err)
	core.SortLessInPlace(a, key, hash, less, cfg)
	return nil
}
