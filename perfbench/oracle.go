package main

import (
	"fmt"

	semisort "repro"
)

// ref is the map-based reference for one input relation and its dimension
// side. Keys are tracked by identity (the u64 key itself, or the identity a
// string key renders) in dense arrays over the identity domain, stamped per
// build, so the small-call workload can rebuild a reference for each batch
// in O(batch).
//
// Outputs are checked with order-free fingerprints: a sum of a 64-bit mix
// of each output item, compared with the same sum over the reference's
// answer. A dropped, duplicated or altered item changes the sum except with
// probability 2^-64, and the check reads each output once, in order, so
// checking costs a small fraction of the call it checks.
type ref struct {
	cur      uint32
	stamp    []uint32 // stamp[id] == cur: id occurs in the input
	cnt      []int32
	first    []int32
	sum      []uint64
	dimStamp []uint32 // dimStamp[id] == cur: id is a dimension key
	dimAt    []uint64 // the dimension position of id

	n, distinct, joinRows, inter int
	sortFP                       uint64 // (key, position) over the input
	dedupFP                      uint64 // (key, position) over first occurrences
	sumFP, countFP               uint64 // (key, sum of positions) and (key, count) per distinct key
	joinFP                       uint64 // (position, dimension position) per joined row

	mark   uint32
	seenID []uint32 // per-check marks for the top-k check
	strBuf []byte
}

func newRef(domain int) *ref {
	return &ref{
		stamp: make([]uint32, domain), cnt: make([]int32, domain),
		first: make([]int32, domain), sum: make([]uint64, domain),
		dimStamp: make([]uint32, domain), dimAt: make([]uint64, domain), seenID: make([]uint32, domain),
		strBuf: make([]byte, 0, 64),
	}
}

// pair is the fingerprint of one output item.
func pair(a, b uint64) uint64 { return mix(mix(a^0x51ed27) + b) }

// build computes the reference for input identities ids, whose keys
// fingerprint as keyFP (the key for u64, a hash of the bytes for strings),
// and dimension identities dimIDs (distinct, in dimension order).
func (f *ref) build(ids, keyFP, dimIDs []uint64) {
	f.cur++
	f.n = len(ids)
	f.distinct, f.joinRows, f.inter = 0, 0, 0
	f.sortFP, f.dedupFP, f.sumFP, f.countFP, f.joinFP = 0, 0, 0, 0, 0
	for j, id := range dimIDs {
		f.dimStamp[id] = f.cur
		f.dimAt[id] = uint64(j)
	}
	for i, id := range ids {
		if f.stamp[id] != f.cur {
			f.stamp[id] = f.cur
			f.cnt[id], f.first[id], f.sum[id] = 0, int32(i), 0
			f.distinct++
			f.dedupFP += pair(keyFP[i], uint64(i))
			if f.dimStamp[id] == f.cur {
				f.inter++
			}
		}
		f.cnt[id]++
		f.sum[id] += uint64(i)
		f.sortFP += pair(keyFP[i], uint64(i))
		if f.dimStamp[id] == f.cur {
			f.joinRows++
			f.joinFP += pair(uint64(i), f.dimAt[id])
		}
	}
	for i, id := range ids {
		if f.first[id] == int32(i) {
			f.sumFP += pair(keyFP[i], f.sum[id])
			f.countFP += pair(keyFP[i], uint64(f.cnt[id]))
		}
	}
}

// checkSort: out is a permutation of the input with every key intact (its
// (key, position) fingerprint matches) in which equal keys are contiguous
// (there are as many key runs as distinct keys).
func checkSort[R any](f *ref, out []R, keyFP func(R) uint64, pos func(R) uint64, same func(a, b R) bool) error {
	if len(out) != f.n {
		return fmt.Errorf("sort: %d records out for %d in", len(out), f.n)
	}
	var fp uint64
	runs := 0
	for i, r := range out {
		fp += pair(keyFP(r), pos(r))
		if i == 0 || !same(out[i-1], r) {
			runs++
		}
	}
	if fp != f.sortFP {
		return fmt.Errorf("sort: output is not a permutation of the input")
	}
	if runs != f.distinct {
		return fmt.Errorf("sort: %d key runs for %d distinct keys", runs, f.distinct)
	}
	return nil
}

// checkDedup: one record per distinct key, each the key's first occurrence.
func checkDedup[R any](f *ref, out []R, keyFP func(R) uint64, pos func(R) uint64) error {
	if len(out) != f.distinct {
		return fmt.Errorf("dedup: %d records out for %d distinct keys", len(out), f.distinct)
	}
	var fp uint64
	for _, r := range out {
		fp += pair(keyFP(r), pos(r))
	}
	if fp != f.dedupFP {
		return fmt.Errorf("dedup: kept records are not the first occurrences")
	}
	return nil
}

// checkReduce: one entry per distinct key whose value is the sum of its
// records' positions (sums) or its record count.
func checkReduce(f *ref, n int, entryFP func(i int) uint64, sums bool) error {
	if n != f.distinct {
		return fmt.Errorf("collect: %d entries for %d distinct keys", n, f.distinct)
	}
	var fp uint64
	for i := 0; i < n; i++ {
		fp += entryFP(i)
	}
	want := f.countFP
	if sums {
		want = f.sumFP
	}
	if fp != want {
		return fmt.Errorf("collect: entries differ from the reference")
	}
	return nil
}

// checkJoin: the row count and the fingerprint of the joined position pairs
// match.
func checkJoin(f *ref, rows []row64) error {
	if len(rows) != f.joinRows {
		return fmt.Errorf("join: %d rows, want %d", len(rows), f.joinRows)
	}
	var fp uint64
	for _, r := range rows {
		fp += pair(r.L, r.R)
	}
	if fp != f.joinFP {
		return fmt.Errorf("join: rows differ from the reference")
	}
	return nil
}

// checkTop10 checks Dedup -> JoinEq(dim) -> TopK(10): after the dedup every
// key that survives the join occurs exactly once, so the result is any
// min(10, |keys in both|) distinct such keys, each with count 1.
func checkTop10[K any](f *ref, top []semisort.KeyCount[K], id func(K) (uint64, bool)) error {
	if want := min(10, f.inter); len(top) != want {
		return fmt.Errorf("pipeline: %d keys, want %d", len(top), want)
	}
	f.mark++
	for i, kc := range top {
		k, ok := id(kc.Key)
		if !ok || f.stamp[k] != f.cur || f.dimStamp[k] != f.cur {
			return fmt.Errorf("pipeline: key at rank %d is not in both relations", i)
		}
		if f.seenID[k] == f.mark {
			return fmt.Errorf("pipeline: key %d ranked twice", k)
		}
		f.seenID[k] = f.mark
		if kc.Count != 1 {
			return fmt.Errorf("pipeline: key %d counted %d, want 1", k, kc.Count)
		}
	}
	return nil
}

// u64ID and strKeyID map emitted keys back to identities.
func (f *ref) u64ID(k uint64) (uint64, bool) { return k, k < uint64(len(f.stamp)) }

func (f *ref) strKeyID(s string) (uint64, bool) {
	id, ok := strID(s, f.strBuf)
	return id, ok && id < uint64(len(f.stamp))
}

// streamRef is the reference of a dedup stream: which submitted records
// are their key's first occurrence in the submitted prefix.
type streamRef struct {
	seen     []uint32
	cur      uint32
	distinct int64
}

func (s *streamRef) reset() {
	s.cur++
	s.distinct = 0
}

// kept records one submitted identity and reports whether it is the
// prefix's first occurrence of its key.
func (s *streamRef) kept(id uint64) bool {
	if s.seen[id] == s.cur {
		return false
	}
	s.seen[id] = s.cur
	s.distinct++
	return true
}
