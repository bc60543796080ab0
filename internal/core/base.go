package core

// Base cases of the Local Refining step (Section 3.3). Both variants
// produce a stable grouping: records with equal keys appear contiguously in
// their original relative order. Base-case scratch lives in the runtime's
// arena, so it is recycled both across the thousands of light buckets of
// one call and across repeated calls sharing a runtime.
//
// The semisort= base case is the paper's hash table, built on the hash-once
// pipeline: the bucket arrives with every record's cached 64-bit user hash,
// so the leaf's grouping pass (GroupLeaf) numbers its groups in
// first-appearance order, and one stable scatter by group id lands the
// grouped bucket. The user closures are untouched on collision-free inputs:
// hashes come from the cache, and eq (with its key extractions) runs only
// when two full 64-bit hashes agree.

// groupEq stably groups the records of a by key equality; ha holds their
// cached user hashes and b (same length, non-aliasing) is scratch. The
// group sizes are counted from the grouping's ids, a prefix over them
// places the groups, and one stable scatter lands the grouped result in b
// when intoB is true, in a otherwise.
func (s *sorter[R, K]) groupEq(a []R, ha []uint64, b []R, intoB bool) {
	g := s.GroupLeaf(a, ha)
	off := g.size[:g.N]
	clear(off)
	for _, x := range g.Gid {
		off[x]++
	}
	sum := int32(0)
	for x, c := range off {
		off[x] = sum
		sum += c
	}
	src, dst := a, b[:len(a)]
	if !intoB {
		copy(dst, src)
		src, dst = dst, src
	}
	for i, x := range g.Gid {
		dst[off[x]] = src[i]
		off[x]++
	}
	g.Release(s.sc)
}

// baseLess is the semisort< base case: a sequential stable merge sort on
// keys using tmp as scratch. Sorting groups equal keys contiguously and the
// merge prefers the left run on ties, preserving input order.
func (s *sorter[R, K]) baseLess(cur, tmp []R) {
	s.mergeSort(cur, tmp[:len(cur)])
}

// insertionCutoff is the run length below which insertion sort is used.
const insertionCutoff = 24

func (s *sorter[R, K]) mergeSort(a, tmp []R) {
	n := len(a)
	if n <= insertionCutoff {
		s.insertionSort(a)
		return
	}
	m := n / 2
	s.mergeSort(a[:m], tmp[:m])
	s.mergeSort(a[m:], tmp[m:])
	if !s.less(s.key(a[m]), s.key(a[m-1])) {
		return // already in order across the split
	}
	copy(tmp, a)
	s.merge(tmp[:m], tmp[m:], a)
}

func (s *sorter[R, K]) merge(left, right, out []R) {
	i, j, w := 0, 0, 0
	for i < len(left) && j < len(right) {
		if s.less(s.key(right[j]), s.key(left[i])) {
			out[w] = right[j]
			j++
		} else {
			out[w] = left[i]
			i++
		}
		w++
	}
	for i < len(left) {
		out[w] = left[i]
		i++
		w++
	}
	for j < len(right) {
		out[w] = right[j]
		j++
		w++
	}
}

func (s *sorter[R, K]) insertionSort(a []R) {
	for i := 1; i < len(a); i++ {
		r := a[i]
		k := s.key(r)
		j := i - 1
		for j >= 0 && s.less(k, s.key(a[j])) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = r
	}
}
