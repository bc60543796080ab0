package semisort

import (
	"repro/internal/core"
	"repro/internal/hashutil"
)

// Pair is a convenience record type for key-value workloads (the paper's
// benchmarks use 64-bit keys with 64-bit values, i.e. Pair[uint64, uint64]).
type Pair[K, V any] struct {
	Key   K
	Value V
}

// PairKey extracts the key of a Pair; it is the key function to pass for
// Pair records.
func PairKey[K, V any](p Pair[K, V]) K { return p.Key }

// Hash64 is the default user hash for integer keys: the splitmix64
// finalizer, a strong 64-bit mix.
func Hash64(x uint64) uint64 { return hashutil.Mix64(x) }

// Hash32 hashes a 32-bit key.
func Hash32(x uint32) uint64 { return hashutil.Mix64(uint64(x)) }

// HashString hashes a string key (FNV-1a with a final mix).
func HashString(s string) uint64 { return hashutil.String(s) }

// HashBytes hashes a byte-slice key.
func HashBytes(b []byte) uint64 { return hashutil.Bytes(b) }

// Identity64 is the identity hash. Passing it yields the paper's integer
// variants (semisort-i= / semisort-i<): faster when keys are integers whose
// low bits are already well distributed, but without the hashed variants'
// theoretical guarantees (Section 4.1).
func Identity64(x uint64) uint64 { return x }

// Identity32 is Identity64 for 32-bit keys.
func Identity32(x uint32) uint64 { return uint64(x) }

// SortEq is semisort= (Algorithm 1): it reorders a in place so that records
// with equal keys are contiguous. Only a hash function and an equality test
// on keys are required. Stable and deterministic.
func SortEq[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) {
	mustCall(SortEqE(a, key, hash, eq, opts...))
}

// SortEqE is SortEq with an error return for cancellable calls: combined
// with WithContext it returns ctx.Err() — context.Canceled or
// context.DeadlineExceeded — once the call has unwound. On cancellation a
// is left in a valid but unspecified permutation of its input (the sort
// was interrupted mid-distribution). Without a context it never returns a
// non-nil error.
func SortEqE[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) (err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return aerr
	}
	defer call.done(&err)
	core.SortEq(a, key, hash, eq, cfg)
	return nil
}

// SortLess is semisort<: like SortEq, but the key type additionally
// supports a less-than test, which the base cases exploit with a
// comparison sort (Section 3.3). Stable and deterministic.
func SortLess[R, K any](a []R, key func(R) K, hash func(K) uint64, less func(K, K) bool, opts ...Option) {
	mustCall(SortLessE(a, key, hash, less, opts...))
}

// SortLessE is SortLess with an error return for cancellable calls; see
// SortEqE for the contract.
func SortLessE[R, K any](a []R, key func(R) K, hash func(K) uint64, less func(K, K) bool, opts ...Option) (err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return aerr
	}
	defer call.done(&err)
	core.SortLess(a, key, hash, less, cfg)
	return nil
}

// Uint64s semisorts a slice of raw 64-bit keys with the identity hash (the
// paper's semisort-i= on key-only records).
func Uint64s(a []uint64, opts ...Option) {
	SortEq(a, func(x uint64) uint64 { return x }, Identity64,
		func(x, y uint64) bool { return x == y }, opts...)
}

// SortPairsEq semisorts key-value pairs with 64-bit keys using the given
// hash (Hash64 for semisort=, Identity64 for semisort-i=).
func SortPairsEq[V any](a []Pair[uint64, V], hash func(uint64) uint64, opts ...Option) {
	SortEq(a, PairKey[uint64, V], hash, func(x, y uint64) bool { return x == y }, opts...)
}

// SortPairsLess semisorts key-value pairs with 64-bit keys using the given
// hash (Hash64 for semisort<, Identity64 for semisort-i<).
func SortPairsLess[V any](a []Pair[uint64, V], hash func(uint64) uint64, opts ...Option) {
	SortLess(a, PairKey[uint64, V], hash, func(x, y uint64) bool { return x < y }, opts...)
}
