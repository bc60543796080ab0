// Package collect implements the paper's histogram and collect-reduce
// primitives (Section 3.5) as an absorbing op on the semisort distribution
// driver. The recursion is core.Absorb, the one level loop collect shares
// with rel's dedup and distinct counting: every level is planned and swept
// by the machinery the sorter uses — the memoizing fused sampler, the single
// fused classify sweep (hash-once, one heavy probe, light-id extraction),
// the skew-adaptive collapse, the id-plane engines with the hash plane
// carried, pooled heavy tables — so the user hash runs exactly once per
// record per call and every engine improvement serves all three problems.
//
// The op supplies the loop's two parameters. Its heavy step is what makes
// it "collect" rather than "sort": heavy records are never moved. The
// classify sweep hands them to an absorb sink that combines their mapped
// values into a per-subarray accumulator in input order, and the partials
// are combined afterwards in subarray order, in an association tree that
// depends on the subarray count alone. Because both steps respect input
// order, any associative combine function works — commutativity is not
// required — and the result is identical at any worker count. Its leaf
// folds the groups of the driver's grouping pass (core.Driver.GroupLeaf)
// over the bucket's cached hashes.
//
// All transient state (the top-level hash plane, the survivor buffers, the
// id planes and counting matrices, heavy accumulators, base-case tables,
// and the output chunks themselves) comes from the configured runtime's
// Scratch arena, and results are packed from core's pooled output tree, so
// repeated Reduce calls only allocate the result slice in steady state. The
// As variants build the caller's own result type in that pack pass.
package collect

import (
	"repro/internal/core"
	"repro/internal/parallel"
)

// KV is one key with its reduced value.
type KV[K, E any] struct {
	Key   K
	Value E
}

// Reducer bundles the user functions of the collect-reduce interface
// (Section 2.1): key extraction, the user hash, equality, the map function
// M, and the reduce monoid (Combine, Identity). Combine must be associative
// with Identity as its identity element; it need not be commutative.
type Reducer[R, K, E any] struct {
	Key      func(R) K
	Hash     func(K) uint64
	Eq       func(K, K) bool
	Map      func(R) E
	Combine  func(E, E) E
	Identity E
}

// Reduce computes collect-reduce over a: one KV per distinct key, with the
// values of that key's records combined in input order. The output lists
// keys in a deterministic order (heavy keys of each recursion level first,
// then light buckets by bucket id). a is not modified.
func Reduce[R, K, E any](a []R, rd Reducer[R, K, E], cfg core.Config) []KV[K, E] {
	return ReducePlane(a, nil, rd, cfg)
}

// ReducePlane is Reduce fused into a pipeline: a non-nil input plane
// supplies cached hashes (the top level starts hashed; the user hash closure
// is never called) and carried heavy keys for level-0 adoption (no sampling
// round).
func ReducePlane[R, K, E any](a []R, in *core.Plane[K], rd Reducer[R, K, E], cfg core.Config) []KV[K, E] {
	rt := parallel.Or(cfg.Runtime)
	out, _ := core.Pack(rt, rt.Scratch(), reduce(a, in, rd, cfg, false), false)
	return out
}

// ReduceAs is ReducePlane (in may be nil) with each result entry built by
// conv in the engine's pack pass: the public ops get their own element type
// without a second output-sized copy.
func ReduceAs[R, K, E, T any](a []R, in *core.Plane[K], rd Reducer[R, K, E], conv func(KV[K, E]) T, cfg core.Config) []T {
	rt := parallel.Or(cfg.Runtime)
	return core.PackAs(rt, rt.Scratch(), reduce(a, in, rd, cfg, false), conv)
}

// reduce runs the collect-reduce recursion and returns its output tree for
// the caller to pack. countOnly is Histogram's fast path: rd's monoid is
// known to be (+1, 0) over int64, so the hot loops count directly and never
// call Map or Combine.
func reduce[R, K, E any](a []R, in *core.Plane[K], rd Reducer[R, K, E], cfg core.Config, countOnly bool) *core.Node[KV[K, E]] {
	if len(a) == 0 {
		return nil
	}
	d := core.NewDriver(len(a), rd.Key, rd.Hash, rd.Eq, cfg)
	sc := d.Scratch()
	s := parallel.GetObj[reducer[R, K, E]](sc)
	s.Reducer = rd
	s.d = d
	s.countOnly = countOnly
	root := core.Absorb(d, a, in, s)
	*s = reducer[R, K, E]{} // drop the user closures before pooling
	parallel.PutObj(sc, s)
	d.Release()
	return root
}

// Histogram counts the occurrences of each key of a (collect-reduce with
// the constant map 1 and the (+, 0) monoid; Section 2.1). Because the
// monoid is the package's own, the reducer runs in count-only mode: heavy
// absorption increments int64 counters directly and leaves emit their group
// sizes, instead of paying two indirect calls (Map, Combine) per record.
func Histogram[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []KV[K, int64] {
	return HistogramPlane(a, nil, key, hash, eq, cfg)
}

// HistogramPlane is Histogram fused into a pipeline (see ReducePlane for the
// input-plane contract).
func HistogramPlane[R, K any](a []R, in *core.Plane[K], key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []KV[K, int64] {
	rt := parallel.Or(cfg.Runtime)
	out, _ := core.Pack(rt, rt.Scratch(), count(a, in, key, hash, eq, cfg), false)
	return out
}

// HistogramAs is HistogramPlane (in may be nil) with each result entry
// built by conv, as ReduceAs.
func HistogramAs[R, K, T any](a []R, in *core.Plane[K], key func(R) K, hash func(K) uint64, eq func(K, K) bool,
	conv func(KV[K, int64]) T, cfg core.Config) []T {
	rt := parallel.Or(cfg.Runtime)
	return core.PackAs(rt, rt.Scratch(), count(a, in, key, hash, eq, cfg), conv)
}

// count is reduce in count-only mode.
func count[R, K any](a []R, in *core.Plane[K], key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) *core.Node[KV[K, int64]] {
	return reduce(a, in, Reducer[R, K, int64]{
		Key:     key,
		Hash:    hash,
		Eq:      eq,
		Map:     func(R) int64 { return 1 },
		Combine: func(x, y int64) int64 { return x + y },
	}, cfg, true)
}

// serialCutoff mirrors the driver's serial threshold (tests straddle it).
const serialCutoff = core.SerialCutoff

// reducer is the collect-reduce terminal op: the user monoid plus the
// shared distribution driver. Pooled per call. countOnly marks Histogram's
// counting monoid (E is int64 then, enforced by the only setter), letting
// the per-record paths increment instead of calling Map/Combine.
type reducer[R, K, E any] struct {
	Reducer[R, K, E]
	d         *core.Driver[R, K]
	countOnly bool
}

// Heavy takes the level's per-(subarray, heavy key) accumulators,
// Identity-initialized, and returns them with the absorb sink that fills
// them in input order within each subarray: a heavy record is mapped and
// combined into its subarray's accumulator right in the classify sweep, and
// never counted or moved.
func (s *reducer[R, K, E]) Heavy(lv *core.Level[K], cur []R) (*parallel.Buf[E], func(sub, hid, j int)) {
	nH := lv.NH
	hAccBuf := parallel.GetBuf[E](s.d.Scratch(), lv.NSub*nH)
	hAcc := hAccBuf.S
	if lv.Serial {
		for i := range hAcc {
			hAcc[i] = s.Identity
		}
	} else {
		s.d.Runtime().For(len(hAcc), 1<<12, func(i int) { hAcc[i] = s.Identity })
	}
	if s.countOnly {
		// Histogram: the accumulators are known int64 counters (the
		// assertion shares the underlying array); absorbing is a bare
		// increment, no Map/Combine indirection per heavy record.
		cnt := any(hAcc).([]int64)
		return hAccBuf, func(sub, hid, j int) { cnt[sub*nH+hid]++ }
	}
	return hAccBuf, func(sub, hid, j int) {
		i := sub*nH + hid
		hAcc[i] = s.Combine(hAcc[i], s.Map(cur[j]))
	}
}

// Emit combines the heavy partials across subarrays in subarray order (this
// is where associativity without commutativity suffices) into the level's
// heavy KVs, read from the table before it is pooled. The fold walks the
// accumulator matrix row-wise — subarrays outer, keys inner — so the pass
// streams over contiguous memory (a column-major per-key fold would take
// one cache miss per partial) while each key still combines its partials
// in subarray order.
func (s *reducer[R, K, E]) Emit(lv *core.Level[K], cur []R, hAccBuf *parallel.Buf[E]) (*parallel.Buf[KV[K, E]], *parallel.Buf[uint64]) {
	sc := s.d.Scratch()
	nH, nSub, hAcc := lv.NH, lv.NSub, hAccBuf.S
	own := parallel.GetBuf[KV[K, E]](sc, nH)
	kvs := own.S
	for h := 0; h < nH; h++ {
		kvs[h] = KV[K, E]{Key: lv.HeavyKey(h), Value: s.Identity}
	}
	switch {
	case s.countOnly:
		// Counting is memory-bound int64 adds; one streaming sweep.
		ckvs, cnt := any(kvs).([]KV[K, int64]), any(hAcc).([]int64)
		for i := 0; i < nSub; i++ {
			row := cnt[i*nH : (i+1)*nH]
			for h := range row {
				ckvs[h].Value += row[h]
			}
		}
	case lv.Serial:
		for i := 0; i < nSub; i++ {
			row := hAcc[i*nH : (i+1)*nH]
			for h := range row {
				kvs[h].Value = s.Combine(kvs[h].Value, row[h])
			}
		}
	default:
		// Parallel levels fold blocks of contiguous subarrays concurrently
		// (each block streams its rows in order into a private partial
		// row), then combine the O(blocks) partials in block order. The
		// block count is ⌈√nSub⌉, a function of nSub alone, and the Blocks
		// partition a pure function of (nSub, nBlocks), so the association
		// tree — and with it the result for any associative, even
		// non-commutative or floating-point, Combine — is identical at
		// every worker count and GOMAXPROCS.
		rt := s.d.Runtime()
		nBlocks := 1
		for nBlocks*nBlocks < nSub {
			nBlocks++
		}
		partBuf := parallel.GetBuf[E](sc, nBlocks*nH)
		part := partBuf.S
		rt.For(len(part), 1<<12, func(i int) { part[i] = s.Identity })
		rt.Blocks(nSub, nBlocks, func(b, lo, hi int) {
			prow := part[b*nH : (b+1)*nH]
			for i := lo; i < hi; i++ {
				row := hAcc[i*nH : (i+1)*nH]
				for h := range row {
					prow[h] = s.Combine(prow[h], row[h])
				}
			}
		})
		for b := 0; b < nBlocks; b++ {
			row := part[b*nH : (b+1)*nH]
			for h := range row {
				kvs[h].Value = s.Combine(kvs[h].Value, row[h])
			}
		}
		partBuf.Release()
	}
	hAccBuf.Release()
	return own, nil
}

// Leaf reduces one cache-resident bucket from the driver's grouping pass
// over its cached hashes (the user hash is never re-run here): one KV per
// group, in first-appearance order, keyed by the group's first record, its
// value an in-order fold of the group's records.
func (s *reducer[R, K, E]) Leaf(cur []R, hcur []uint64) (*parallel.Buf[KV[K, E]], *parallel.Buf[uint64]) {
	sc := s.d.Scratch()
	g := s.d.GroupLeaf(cur, hcur)
	own := parallel.GetBuf[KV[K, E]](sc, len(cur))
	out := own.S[:g.N]
	if s.countOnly {
		// Histogram: the values are int64 counts over the same chunk (the
		// assertion shares the array), so no monoid call runs per record.
		cout := any(out).([]KV[K, int64])
		for x, f := range g.First {
			cout[x] = KV[K, int64]{Key: s.Key(cur[f])}
		}
		for _, x := range g.Gid {
			cout[x].Value++
		}
	} else {
		// Locals: the fields would be re-read through s after every call.
		key, mapf, combine := s.Key, s.Map, s.Combine
		for x, f := range g.First {
			out[x] = KV[K, E]{Key: key(cur[f]), Value: s.Identity}
		}
		for i, x := range g.Gid {
			out[x].Value = combine(out[x].Value, mapf(cur[i]))
		}
	}
	g.Release(sc)
	own.S = out
	return own, nil
}
