// Package collect implements the paper's histogram and collect-reduce
// primitives (Section 3.5) as a terminal op on the semisort distribution
// driver (core.Driver): every level is planned and distributed by exactly
// the machinery the sorter uses — the memoizing fused sampler, the single
// fused classify sweep (hash-once, one heavy probe, light-id extraction),
// the skew-adaptive collapse, the id-plane engines with the hash plane
// carried, pooled heavy tables — so the user hash runs exactly once per
// record per call and every engine improvement serves all three problems.
//
// What makes the op "collect" rather than "sort": heavy records are never
// moved. The classify sweep hands them to an absorb sink that combines
// their mapped values into a per-subarray accumulator in input order (the
// generalization of the sorter's hLive dead suffix — absorbed records skip
// the scatter entirely, see dist.StableAbsorbInto), and the per-subarray
// partials are combined afterwards in subarray order. Because both steps
// respect input order, any associative combine function works —
// commutativity is not required. Light buckets recurse through
// survivor-sized record/hash buffers (each level's scatter destination is
// allocated at the exact survivor count, so footprint tracks the residue,
// not n) and terminate in an open-addressing combine table.
//
// All transient state (the top-level hash plane, the survivor buffers, the
// id planes and counting matrices, heavy accumulators, base-case tables,
// and the output chunks themselves) comes from the configured runtime's
// Scratch arena: results accumulate in pooled per-node chunks linked into a
// bucket-ordered tree and are packed into the caller's result slice by one
// final parallel pass, so repeated Reduce calls only allocate that result
// slice in steady state.
package collect

import (
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
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
	return reduce[R, K, E](a, nil, rd, cfg, false)
}

// ReducePlane is Reduce fused into a pipeline: a non-nil input plane
// supplies cached hashes (the top level starts hashed; the user hash closure
// is never called) and carried heavy keys for level-0 adoption (no sampling
// round).
func ReducePlane[R, K, E any](a []R, in *core.Plane[K], rd Reducer[R, K, E], cfg core.Config) []KV[K, E] {
	return reduce(a, in, rd, cfg, false)
}

// reduce is the shared body. countOnly is Histogram's fast path: rd's
// monoid is known to be (+1, 0) over int64, so the hot loops count
// directly and never call Map or Combine.
func reduce[R, K, E any](a []R, in *core.Plane[K], rd Reducer[R, K, E], cfg core.Config, countOnly bool) []KV[K, E] {
	n := len(a)
	if n == 0 {
		return nil
	}
	d := core.NewDriver(n, rd.Key, rd.Hash, rd.Eq, cfg)
	sc := d.Scratch()
	s := parallel.GetObj[reducer[R, K, E]](sc)
	rd.Eq = d.Eq() // counted under the eq-count contract when armed
	s.Reducer = rd
	s.d = d
	s.countOnly = countOnly

	// No working copy: the distribution never writes its source, so the
	// top level reads a directly; only the hash plane mirrors the input.
	// Each level's scatter buffer is sized to its *surviving* lights by the
	// absorbing engines (heavy records are reduced where they stand), so
	// under skew the call's footprint tracks the residue, not n. An input
	// plane with cached hashes IS that mirror already, so the lease is
	// skipped and the top level starts hashed; its carried heavy keys seed
	// the level-0 table in place of a sampling round.
	var hb *parallel.Buf[uint64]
	hs := []uint64(nil)
	hashed := false
	if in != nil {
		if in.HeavyKeys != nil {
			d.Adopt(in.HeavyKeys, in.HeavyHashes)
		}
		if in.Hashes != nil {
			hs, hashed = in.Hashes, true
		}
	}
	if hs == nil {
		// Ledger-tracked: discarded instead of re-pooled if the call faults.
		hb = parallel.LeaseBuf[uint64](sc, d.Ledger(), n)
		hs = hb.S
	}
	root := s.rec(a, hs, hashed, 0, 0, hashutil.NewRNG(d.Seed()))
	out := s.pack(root)
	if hb != nil {
		hb.Release()
	}

	*s = reducer[R, K, E]{} // drop the user closures before pooling
	parallel.PutObj(sc, s)
	d.Release()
	return out
}

// Histogram counts the occurrences of each key of a (collect-reduce with
// the constant map 1 and the (+, 0) monoid; Section 2.1). Because the
// monoid is the package's own, the reducer runs in count-only mode: heavy
// absorption and the leaf tables increment int64 counters directly instead
// of paying two indirect calls (Map, Combine) per record.
func Histogram[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []KV[K, int64] {
	return HistogramPlane(a, nil, key, hash, eq, cfg)
}

// HistogramPlane is Histogram fused into a pipeline (see ReducePlane for the
// input-plane contract).
func HistogramPlane[R, K any](a []R, in *core.Plane[K], key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []KV[K, int64] {
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

// node is one recursion node's output: the node's own KVs (an internal
// node's heavy results; a leaf's combine-table contents) followed by its
// light-bucket children in bucket-id order. Nodes and their chunks are
// arena-pooled; the final pack walks the tree once to assign offsets and
// copies every chunk into the result slice in parallel.
type node[K, E any] struct {
	own  *parallel.Buf[KV[K, E]]    // nil when the node emitted nothing itself
	kids *parallel.Buf[*node[K, E]] // nil for leaves; nil entries for empty buckets
}

// packItem is one chunk placement of the final parallel pack.
type packItem[K, E any] struct {
	src []KV[K, E]
	off int
}

// rec is one level: plan (sampling + collapse), distribute lights while
// absorbing heavies into per-subarray accumulators, combine the partials in
// subarray order, recurse on light buckets. cur/hcur are read-only here
// (the top level passes the user's input directly); each level takes a
// survivor-sized record+hash buffer from the arena for its scatter and
// releases it once its subtree has reduced. hashed reports whether hcur
// already holds every record's user hash (false only at the top level,
// whose classify sweep computes and caches them).
func (s *reducer[R, K, E]) rec(cur []R, hcur []uint64, hashed bool, depth, bitDepth int, rng hashutil.RNG) *node[K, E] {
	n := len(cur)
	if n == 0 {
		return nil
	}
	sc := s.d.Scratch()
	if n <= s.d.Alpha() || depth >= s.d.MaxDepth() {
		if !hashed {
			s.d.HashAll(cur, hcur) // the combine table consumes the plane
		}
		return s.base(cur, hcur)
	}

	// Step 1: Sampling and Bucketing plus the level-shape decision, shared
	// with the sorter (core.Driver.PlanLevel).
	lv := s.d.PlanLevel(cur, hcur, hashed, true, bitDepth, &rng)
	// Copy for the per-bucket forks: an addressed rng captured by the
	// refining closure would be heap-boxed at every rec entry.
	frng := rng
	nH, nSub := lv.NH, lv.NSub

	// Per-(subarray, heavy key) accumulators, Identity-initialized. The
	// absorb sink below fills them in input order within each subarray.
	var hAccBuf *parallel.Buf[E]
	var hAcc []E
	if nH > 0 {
		hAccBuf = parallel.GetBuf[E](sc, nSub*nH)
		hAcc = hAccBuf.S
		if lv.Serial {
			for i := range hAcc {
				hAcc[i] = s.Identity
			}
		} else {
			s.d.Runtime().For(len(hAcc), 1<<12, func(i int) { hAcc[i] = s.Identity })
		}
	}

	// Step 2: Blocked Distributing through the shared id-plane engines.
	// Heavy records are handed to the absorb sink during the one fused
	// classify sweep — mapped, combined into their subarray's accumulator,
	// marked dist.Absorbed, and never counted or scattered. Surviving
	// light records land in light[0:starts[NLight]] with their cached
	// hashes carried in hlight; both buffers are taken from the arena at
	// the exact survivor count (dest runs once counting is done).
	absorb := func(sub, hid, j int) {
		i := sub*nH + hid
		hAcc[i] = s.Combine(hAcc[i], s.Map(cur[j]))
	}
	if s.countOnly && nH > 0 {
		// Histogram: the accumulators are known int64 counters (the
		// assertion shares the underlying array); absorbing is a bare
		// increment, no Map/Combine indirection per heavy record.
		cnt := any(hAcc).([]int64)
		absorb = func(sub, hid, j int) { cnt[sub*nH+hid]++ }
	}
	var lightBuf *parallel.Buf[R]
	var hlightBuf *parallel.Buf[uint64]
	dest := func(kept int) ([]R, []uint64) {
		lightBuf = parallel.GetBuf[R](sc, kept)
		hlightBuf = parallel.GetBuf[uint64](sc, kept)
		return lightBuf.S, hlightBuf.S
	}
	startsBuf := parallel.GetBuf[int](sc, lv.NLight+1)
	starts := s.d.AbsorbLevel(&lv, cur, hcur, hashed, bitDepth, startsBuf.S, absorb, dest)
	lv.ReleaseSample()

	nd := parallel.GetObj[node[K, E]](sc)
	nd.own, nd.kids = nil, nil // pooled nodes come back dirty

	// Combine heavy partials across subarrays in subarray order (this is
	// where associativity without commutativity suffices), materializing
	// the level's heavy keys before the table is pooled for the next level.
	// The fold walks the accumulator matrix row-wise — subarrays outer,
	// keys inner — so the pass streams over contiguous memory (a
	// column-major per-key fold would take one cache miss per partial)
	// while each key still combines its partials in subarray order.
	if nH > 0 {
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
			// Parallel levels fold blocks of contiguous subarrays
			// concurrently (each block streams its rows in order into a
			// private partial row), then combine the O(blocks) partials in
			// block order. The Blocks partition is a pure function of
			// (nSub, nBlocks), so the association tree — and with it the
			// result for any associative, even non-commutative, Combine —
			// is deterministic at every worker count.
			rt := s.d.Runtime()
			nBlocks := min(4*parallel.Workers(), nSub)
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
		nd.own = own
		hAccBuf.Release()
	}
	lv.ReleaseTable(sc)

	// Step 3: Local Refining — recurse on the surviving light buckets;
	// children record their subtree output into the node tree. The
	// survivor buffers stay alive until the whole subtree has reduced
	// (children read them as their cur), then go back to the arena.
	nd.kids = parallel.GetBuf[*node[K, E]](sc, lv.NLight)
	nd.kids.Zero()
	kids := nd.kids.S
	light, hlight := lightBuf.S, hlightBuf.S
	s.d.ForBuckets(lv.Serial, lv.NLight, func(j int) {
		lo, hi := starts[j], starts[j+1]
		if lo < hi {
			kids[j] = s.rec(light[lo:hi], hlight[lo:hi], true, depth+1, lv.NextBit, frng.Fork(uint64(j)))
		}
	})
	hlightBuf.Release()
	lightBuf.Release()
	startsBuf.Release()
	return nd
}

// base runs baseImpl under the stats plane's leaf accounting
// (branch-on-nil when stats are disabled).
func (s *reducer[R, K, E]) base(cur []R, hcur []uint64) *node[K, E] {
	if !s.d.StatsArmed() {
		return s.baseImpl(cur, hcur)
	}
	t0 := time.Now()
	nd := s.baseImpl(cur, hcur)
	s.d.StatLeaf(len(cur), time.Since(t0).Nanoseconds())
	return nd
}

// baseImpl reduces one cache-resident bucket sequentially with a hash table
// that combines values in place, consuming the cached hash plane (the user
// hash is never re-run here). Keys are emitted into a pooled chunk in
// first-appearance order, values combined in record order.
func (s *reducer[R, K, E]) baseImpl(cur []R, hcur []uint64) *node[K, E] {
	n := len(cur)
	sc := s.d.Scratch()
	t := core.GetLeafTable(sc, n)
	slots, hashes, mask := t.Slots, t.Hashes, t.Mask
	own := parallel.GetBuf[KV[K, E]](sc, n)
	out := own.S[:0]
	if s.countOnly {
		// Histogram: the emitted values are int64 counts over the same
		// underlying chunk (the assertion shares the array; appends stay
		// within its n-record capacity) — insert 1, increment on a match,
		// no monoid calls per record.
		cout := any(out).([]KV[K, int64])
		for idx := 0; idx < n; idx++ {
			h := hcur[idx]
			i := t.Home(h)
			for {
				si := slots[i]
				if si < 0 {
					t.Claim(i, int32(len(cout)), h)
					cout = append(cout, KV[K, int64]{Key: s.Key(cur[idx]), Value: 1})
					break
				}
				if hashes[i] == h && s.Eq(cout[si].Key, s.Key(cur[idx])) {
					cout[si].Value++
					break
				}
				i = (i + 1) & mask
			}
		}
		out = any(cout).([]KV[K, E])
	} else {
		for idx := 0; idx < n; idx++ {
			h := hcur[idx]
			i := t.Home(h)
			for {
				si := slots[i]
				if si < 0 {
					t.Claim(i, int32(len(out)), h)
					out = append(out, KV[K, E]{Key: s.Key(cur[idx]), Value: s.Combine(s.Identity, s.Map(cur[idx]))})
					break
				}
				if hashes[i] == h && s.Eq(out[si].Key, s.Key(cur[idx])) {
					out[si].Value = s.Combine(out[si].Value, s.Map(cur[idx]))
					break
				}
				i = (i + 1) & mask
			}
		}
	}
	t.Release(sc)
	own.S = out
	nd := parallel.GetObj[node[K, E]](sc)
	nd.own, nd.kids = own, nil
	return nd
}

// pack flattens the node tree into the result slice: one deterministic
// pre-order walk assigns chunk offsets (a node's own KVs, then its light
// buckets in bucket-id order), one parallel pass copies the chunks, and the
// tree goes back to the arena.
func (s *reducer[R, K, E]) pack(root *node[K, E]) []KV[K, E] {
	if root == nil {
		return nil
	}
	sc := s.d.Scratch()
	itemsBuf := parallel.GetBuf[packItem[K, E]](sc, 0)
	items := itemsBuf.S[:0]
	total := 0
	var walk func(nd *node[K, E])
	walk = func(nd *node[K, E]) {
		if nd == nil {
			return
		}
		if nd.own != nil && len(nd.own.S) > 0 {
			items = append(items, packItem[K, E]{src: nd.own.S, off: total})
			total += len(nd.own.S)
		}
		if nd.kids != nil {
			for _, kid := range nd.kids.S {
				walk(kid)
			}
		}
	}
	walk(root)
	out := make([]KV[K, E], total)
	s.d.Runtime().For(len(items), 1, func(i int) {
		copy(out[items[i].off:], items[i].src)
	})
	s.freeTree(root)
	itemsBuf.S = items[:0]
	itemsBuf.Release()
	return out
}

// freeTree returns a packed subtree to the arena, clearing chunk contents
// so pooled buffers do not pin caller keys and values between calls.
func (s *reducer[R, K, E]) freeTree(nd *node[K, E]) {
	if nd == nil {
		return
	}
	sc := s.d.Scratch()
	if nd.own != nil {
		clear(nd.own.S)
		nd.own.Release()
		nd.own = nil
	}
	if nd.kids != nil {
		for _, kid := range nd.kids.S {
			s.freeTree(kid)
		}
		nd.kids.Zero()
		nd.kids.Release()
		nd.kids = nil
	}
	parallel.PutObj(sc, nd)
}
