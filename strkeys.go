package semisort

import (
	"repro/internal/strkey"
)

// This file is the public face of the variable-length key engine (see
// internal/strkey): string- and []byte-keyed forms of the core ops that
// materialize every key exactly once per call into a pooled, length-prefixed
// byte arena and then run the unmodified distribution engines over an
// index/span plane — 16 bytes moved per record per level regardless of key
// length, 8-byte spans in every heavy table and leaf slot, and full key
// bytes touched only by the digest-gated equality fallthrough. Compared to
// instantiating the generic ops at K = string, the arena path avoids moving
// string headers through every level, chasing per-record heap pointers in
// leaf comparisons, and re-extracting keys at every eq site; steady-state
// allocations stay O(1) in n (the arena and span planes are leased from the
// runtime's arena through the call ledger).
//
// The ...Str forms take a plain string key extractor. The ...Keyed forms
// take an AppendKey instead — an append-style materializer — which covers
// []byte keys and composite keys (append several fields) with zero
// per-record allocation. Single keys are limited to MaxStrKeyLen bytes and
// one relation's keys to 2^39-1 arena bytes; exceeding either panics, like
// the engine's 2^31-1 record ceiling.

// AppendKey materializes a record's key bytes onto dst append-style and
// returns the extended slice. It runs exactly once per record per call; a
// composite key appends its parts without any per-record allocation.
type AppendKey[R any] func(dst []byte, r R) []byte

// MaxStrKeyLen is the longest single key the arena key plane accepts.
const MaxStrKeyLen = strkey.MaxKeyLen

// appendStr adapts a string key extractor to the arena's append interface.
func appendStr[R any](key func(R) string) strkey.AppendKey[R] {
	return func(dst []byte, r R) []byte { return append(dst, key(r)...) }
}

// SortEqStr is SortEq for string-keyed records: records with equal keys end
// up contiguous, stable and deterministic, with the engine comparing 64-bit
// digests and contiguous arena bytes instead of string headers.
func SortEqStr[R any](a []R, key func(R) string, opts ...Option) {
	mustCall(SortEqStrE(a, key, opts...))
}

// SortEqStrE is SortEqStr with an error return for cancellable calls; see
// SortEqE for the contract.
func SortEqStrE[R any](a []R, key func(R) string, opts ...Option) (err error) {
	return SortEqKeyedE(a, AppendKey[R](appendStr(key)), opts...)
}

// SortEqKeyed is SortEqStr for append-materialized ([]byte or composite)
// keys.
func SortEqKeyed[R any](a []R, appendKey AppendKey[R], opts ...Option) {
	mustCall(SortEqKeyedE(a, appendKey, opts...))
}

// SortEqKeyedE is SortEqKeyed with an error return for cancellable calls;
// see SortEqE for the contract.
func SortEqKeyedE[R any](a []R, appendKey AppendKey[R], opts ...Option) (err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return aerr
	}
	defer call.done(&err)
	strkey.SortEq(a, strkey.AppendKey[R](appendKey), strkey.Bytes, cfg)
	return nil
}

// DedupStr is Dedup for string-keyed records: one record per distinct key,
// the key's first record in input order.
func DedupStr[R any](a []R, key func(R) string, opts ...Option) []R {
	out, err := DedupStrE(a, key, opts...)
	mustCall(err)
	return out
}

// DedupStrE is DedupStr with an error return for cancellable calls; see
// SortEqE for the contract.
func DedupStrE[R any](a []R, key func(R) string, opts ...Option) ([]R, error) {
	return DedupKeyedE(a, AppendKey[R](appendStr(key)), opts...)
}

// DedupKeyed is DedupStr for append-materialized keys.
func DedupKeyed[R any](a []R, appendKey AppendKey[R], opts ...Option) []R {
	out, err := DedupKeyedE(a, appendKey, opts...)
	mustCall(err)
	return out
}

// DedupKeyedE is DedupKeyed with an error return for cancellable calls; see
// SortEqE for the contract.
func DedupKeyedE[R any](a []R, appendKey AppendKey[R], opts ...Option) (out []R, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return strkey.Dedup(a, strkey.AppendKey[R](appendKey), strkey.Bytes, cfg), nil
}

// JoinEqStr computes the inner equi-join of a and b on bytes-equal string
// keys: one join(r, s) row per matching pair. Both relations' keys build
// into one shared arena plane, so cross-relation comparisons are contiguous
// byte compares behind the digest gate.
func JoinEqStr[R, S, T any](a []R, b []S, keyA func(R) string, keyB func(S) string,
	join func(R, S) T, opts ...Option) []T {
	out, err := JoinEqStrE(a, b, keyA, keyB, join, opts...)
	mustCall(err)
	return out
}

// JoinEqStrE is JoinEqStr with an error return for cancellable calls; see
// JoinEqE for the contract.
func JoinEqStrE[R, S, T any](a []R, b []S, keyA func(R) string, keyB func(S) string,
	join func(R, S) T, opts ...Option) ([]T, error) {
	return JoinEqKeyedE(a, b, AppendKey[R](appendStr(keyA)), AppendKey[S](appendStr(keyB)), join, opts...)
}

// JoinEqKeyed is JoinEqStr for append-materialized keys.
func JoinEqKeyed[R, S, T any](a []R, b []S, appendKeyA AppendKey[R], appendKeyB AppendKey[S],
	join func(R, S) T, opts ...Option) []T {
	out, err := JoinEqKeyedE(a, b, appendKeyA, appendKeyB, join, opts...)
	mustCall(err)
	return out
}

// JoinEqKeyedE is JoinEqKeyed with an error return for cancellable calls;
// see JoinEqE for the contract.
func JoinEqKeyedE[R, S, T any](a []R, b []S, appendKeyA AppendKey[R], appendKeyB AppendKey[S],
	join func(R, S) T, opts ...Option) (out []T, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return strkey.Join(a, b, strkey.AppendKey[R](appendKeyA), strkey.AppendKey[S](appendKeyB),
		strkey.Bytes, join, cfg), nil
}

// SemiJoinEqStr returns the a-records whose string key appears in b, each
// at most once; see SemiJoinEq.
func SemiJoinEqStr[R, S any](a []R, b []S, keyA func(R) string, keyB func(S) string,
	opts ...Option) []R {
	out, err := SemiJoinEqStrE(a, b, keyA, keyB, opts...)
	mustCall(err)
	return out
}

// SemiJoinEqStrE is SemiJoinEqStr with an error return for cancellable
// calls; see SortEqE for the contract.
func SemiJoinEqStrE[R, S any](a []R, b []S, keyA func(R) string, keyB func(S) string,
	opts ...Option) (out []R, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return strkey.SemiJoin(a, b, appendStr(keyA), appendStr(keyB), strkey.Bytes, cfg), nil
}

// CountDistinctStr counts the distinct string keys of a without
// materializing them.
func CountDistinctStr[R any](a []R, key func(R) string, opts ...Option) int64 {
	n, err := CountDistinctStrE(a, key, opts...)
	mustCall(err)
	return n
}

// CountDistinctStrE is CountDistinctStr with an error return for
// cancellable calls; see SortEqE for the contract.
func CountDistinctStrE[R any](a []R, key func(R) string, opts ...Option) (n int64, err error) {
	return CountDistinctKeyedE(a, AppendKey[R](appendStr(key)), opts...)
}

// CountDistinctKeyed is CountDistinctStr for append-materialized keys.
func CountDistinctKeyed[R any](a []R, appendKey AppendKey[R], opts ...Option) int64 {
	n, err := CountDistinctKeyedE(a, appendKey, opts...)
	mustCall(err)
	return n
}

// CountDistinctKeyedE is CountDistinctKeyed with an error return for
// cancellable calls; see SortEqE for the contract.
func CountDistinctKeyedE[R any](a []R, appendKey AppendKey[R], opts ...Option) (n int64, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return 0, aerr
	}
	defer call.done(&err)
	return strkey.CountDistinct(a, strkey.AppendKey[R](appendKey), strkey.Bytes, cfg), nil
}

// HistogramStr counts each distinct string key's records. Everything
// upstream compares spans and digests only. The output keys are copied out
// of the arena once, and each block of 8192 consecutive keys shares one
// backing string, so a retained key keeps its block alive; strings.Clone
// detaches a key that outlives the rest.
func HistogramStr[R any](a []R, key func(R) string, opts ...Option) []KeyCount[string] {
	out, err := HistogramStrE(a, key, opts...)
	mustCall(err)
	return out
}

// HistogramStrE is HistogramStr with an error return for cancellable calls;
// see SortEqE for the contract.
func HistogramStrE[R any](a []R, key func(R) string, opts ...Option) (out []KeyCount[string], err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return strkey.Histogram(a, appendStr(key), strkey.Bytes, keyCount, cfg), nil
}

// TopKStr returns the k most frequent string keys of a with their counts,
// ordered by descending count (ties broken deterministically). Only the k
// winning keys are copied out of the arena; they share backing strings as
// HistogramStr's keys do.
func TopKStr[R any](a []R, k int, key func(R) string, opts ...Option) []KeyCount[string] {
	out, err := TopKStrE(a, k, key, opts...)
	mustCall(err)
	return out
}

// TopKStrE is TopKStr with an error return for cancellable calls; see
// SortEqE for the contract.
func TopKStrE[R any](a []R, k int, key func(R) string, opts ...Option) (out []KeyCount[string], err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	return strkey.TopK(a, k, appendStr(key), strkey.Bytes, keyCount, cfg), nil
}

// keyCount builds one string-keyed result element; the key materializer
// (strkey.Emit) writes results straight into the caller's slice with it.
func keyCount(key string, count int64) KeyCount[string] {
	return KeyCount[string]{Key: key, Count: count}
}
