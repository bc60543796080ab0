package rel

import (
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/parallel"
)

// joinKind selects which rows an equi-join emits.
type joinKind uint8

const (
	joinInner joinKind = iota // every matching (a, b) pair, via the join function
	joinSemi                  // a-records with at least one match in b
	joinAnti                  // a-records with no match in b
	joinCount                 // one (key, count_a * count_b) per key present on both sides
)

// Join computes the hash-partitioned inner equi-join of a and b: one
// joinF(r, s) row for every pair with eq(keyA(r), keyB(s)). Both relations
// are classified against ONE sample and heavy table per recursion level
// (the level is planned over the larger side and adapted to the other via
// core.Driver.ForeignLevel), so bucket j of a and bucket j of b hold
// exactly the same key population and co-partitioned bucket pairs join in
// cache. Heavy keys join by broadcast: both sides' heavy records are
// absorbed during the classify sweep — their indices logged per subarray in
// input order, the records themselves never moved — and the cross product
// reads them in place. Leaves run a classic build-on-the-smaller-side hash
// join consuming the cached hash planes.
//
// The user hash runs exactly once per record of either relation per call;
// neither input is modified. Row order is deterministic for a fixed seed
// but unspecified (each level's heavy keys first — a-order crossed with
// b-order per key — then bucket pairs by bucket id).
func Join[R, S, K, T any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, joinF func(R, S) T, cfg core.Config) []T {
	return runJoin[R, S, K, T](a, b, keyA, keyB, hash, eq, joinF, nil, nil, joinInner, false, false, cfg, nil, nil, nil)
}

// JoinPlane is the inner equi-join fused into a pipeline. inA/inB, when
// non-nil, supply the two sides' cached hash planes (that side's records
// are never re-hashed — its top level starts hashed). When out is non-nil
// the call emits the output's plane into it: the result rows' user hashes
// in an arena-leased buffer (heavy rows read the shared table's OrderHash,
// leaf rows their probe record's cached hash) plus the level-0 heavy keys
// that have rows, for downstream adoption. Carried heavy keys of the inputs
// are NOT adopted — a join plans its own shared sample over the larger side.
func JoinPlane[R, S, K, T any](a []R, inA *core.Plane[K], b []S, inB *core.Plane[K],
	keyA func(R) K, keyB func(S) K, hash func(K) uint64, eq func(K, K) bool,
	joinF func(R, S) T, out *core.Plane[K], cfg core.Config) []T {
	return runJoin[R, S, K, T](a, b, keyA, keyB, hash, eq, joinF, nil, nil, joinInner, false, false, cfg, inA, inB, out)
}

// SemiJoin returns the records of a whose key appears in b — each a-record
// at most once, regardless of how many b-records match it. Order is
// deterministic for a fixed seed but unspecified. See Join for the
// partitioning scheme.
func SemiJoin[R, S, K any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []R {
	return runJoin[R, S, K, R](a, b, keyA, keyB, hash, eq, nil, identity[R], nil, joinSemi, false, false, cfg, nil, nil, nil)
}

// SemiJoinPlane is SemiJoin fused into a pipeline: inA/inB, when non-nil,
// supply the two sides' cached hash planes, exactly as in JoinPlane. A
// semi-join emits a-records, not rows, so there is no output plane.
func SemiJoinPlane[R, S, K any](a []R, inA *core.Plane[K], b []S, inB *core.Plane[K],
	keyA func(R) K, keyB func(S) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []R {
	return runJoin[R, S, K, R](a, b, keyA, keyB, hash, eq, nil, identity[R], nil, joinSemi, false, false, cfg, inA, inB, nil)
}

// AntiJoin returns the records of a whose key does NOT appear in b. Order is
// deterministic for a fixed seed but unspecified. See Join for the
// partitioning scheme.
func AntiJoin[R, S, K any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []R {
	return runJoin[R, S, K, R](a, b, keyA, keyB, hash, eq, nil, identity[R], nil, joinAnti, false, false, cfg, nil, nil, nil)
}

// JoinCount computes the per-key row counts of the inner equi-join of a and
// b without materializing a single joined row: one KV per key present in
// both relations, with Value = count_a(key) * count_b(key). It is the
// histogram of Join(a, b) keyed by the join key, and the reason a fused
// join -> histogram/top-k/count-distinct pipeline beats the unfused chain
// structurally — a zipfian join can emit orders of magnitude more rows than
// either input holds, and this op never writes one. inA/inB supply cached
// hash planes exactly as in JoinPlane.
//
// presA (presB) counts that side by key presence: each key's multiplicity
// there counts as min(count, 1), so the result is exactly the counting join
// of Dedup(a) (Dedup(b)) — without running the dedup, packing its output
// or distributing it a second time. The keys and their row counts do not
// depend on which records a dedup would keep, so presence loses nothing.
//
// It is the equi-join's recursion with every record-logging stage demoted
// to counting: heavy records tick the per-(subarray, key) count matrix
// during the classify sweep and are never logged, resolved, or crossed;
// leaves chain the smaller side (ties to a), count the other side's hits
// per key and multiply.
//
// The user hash runs exactly once per record of either relation — or zero
// times for a side whose input plane carries cached hashes. Output order is
// deterministic for a fixed seed but unspecified (each level's heavy keys
// first, then bucket pairs by bucket id; within a leaf, the build side's
// first-occurrence order). Neither input is modified.
func JoinCount[R, S, K any](a []R, inA *core.Plane[K], b []S, inB *core.Plane[K],
	keyA func(R) K, keyB func(S) K, hash func(K) uint64, eq func(K, K) bool,
	presA, presB bool, cfg core.Config) []collect.KV[K, int64] {
	return runJoin[R, S, K, collect.KV[K, int64]](a, b, keyA, keyB, hash, eq, nil, nil, countKV[K], joinCount, presA, presB, cfg, inA, inB, nil)
}

func identity[R any](r R) R { return r }

func countKV[K any](k K, n int64) collect.KV[K, int64] { return collect.KV[K, int64]{Key: k, Value: n} }

// runJoin is the shared body. Each kind builds its rows with one
// constructor: joinF for the inner join's pairs, fromA for the kinds that
// emit a-records (semi, anti: T is R and fromA is the identity), countF for
// the counting join's (key, row count) pairs. presA/presB are the counting
// join's presence sides (see JoinCount). inA/inB/plOut are the
// pipeline-fusion hooks (see JoinPlane); nil for the plain entry points.
func runJoin[R, S, K, T any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool,
	joinF func(R, S) T, fromA func(R) T, countF func(K, int64) T, kind joinKind, presA, presB bool,
	cfg core.Config, inA, inB, plOut *core.Plane[K]) []T {
	na, nb := len(a), len(b)
	if na == 0 || (nb == 0 && kind != joinAnti) {
		if kind == joinAnti && na > 0 { // empty b: nothing can match
			out := make([]T, na)
			for i, r := range a {
				out[i] = fromA(r)
			}
			return out
		}
		return nil
	}
	// Two drivers over one Config: same light-bucket geometry (so hash-bit
	// windows agree level for level, the ForeignLevel contract) and the same
	// runtime, hence one shared arena.
	dA := core.NewDriver(na, keyA, hash, eq, cfg)
	dB := core.NewDriver(nb, keyB, hash, eq, cfg)
	sc := dA.Scratch()
	j := parallel.GetObj[joiner[R, S, K, T]](sc)
	j.keyA, j.keyB, j.eq = keyA, keyB, dA.Eq()
	j.joinF, j.fromA, j.countF, j.kind = joinF, fromA, countF, kind
	j.presA, j.presB = presA, presB
	j.dA, j.dB = dA, dB
	j.emit = plOut != nil
	j.carryKeys, j.carryHashes = nil, nil

	// Input planes stand in for the lazily filled top-level hash mirrors:
	// that side starts hashed and its records are never re-hashed.
	hA, hbA, hashedA := dA.HashPlane(inA, na)
	hB, hbB, hashedB := dB.HashPlane(inB, nb)
	root := j.rec(a, hA, b, hB, hashedA, hashedB, 0, 0, hashutil.NewRNG(dA.Seed()))
	out, hout := core.Pack(dA.Runtime(), sc, root, j.emit)
	if j.emit {
		*plOut = core.Plane[K]{
			HeavyKeys:   j.carryKeys,
			HeavyHashes: j.carryHashes,
		}
		if hout != nil {
			plOut.Hashes, plOut.HBuf = hout.S, hout
		}
	}
	if hbB != nil {
		hbB.Release()
	}
	if hbA != nil {
		hbA.Release()
	}

	*j = joiner[R, S, K, T]{}
	parallel.PutObj(sc, j)
	dB.Release()
	dA.Release()
	return out
}

// joiner is the equi-join terminal op: the user closures plus one
// distribution driver per relation. Pooled per call. emit marks
// plane-emitting calls: every node's own chunk travels with aligned row
// hashes, and the top level's heavy keys are carried out for downstream
// adoption (carryKeys/carryHashes, captured before the table is pooled).
type joiner[R, S, K, T any] struct {
	keyA   func(R) K
	keyB   func(S) K
	eq     func(K, K) bool
	joinF  func(R, S) T
	fromA  func(R) T
	countF func(K, int64) T
	kind   joinKind
	dA     *core.Driver[R, K]
	dB     *core.Driver[S, K]

	presA, presB bool // counting join: that side counts each key once

	emit        bool
	carryKeys   []K
	carryHashes []uint64
}

// rowCount is the counting join's row count of a key with na a-records and
// nb b-records: their product, a presence side counting at most one.
func (j *joiner[R, S, K, T]) rowCount(na, nb int64) int64 {
	if j.presA {
		na = min(na, 1)
	}
	if j.presB {
		nb = min(nb, 1)
	}
	return na * nb
}

// rec joins one co-partitioned pair of buckets: plan the level over the
// larger side, classify both sides against the shared heavy table and hash
// window, join the heavy keys by broadcast, recurse on bucket pairs.
func (j *joiner[R, S, K, T]) rec(curA []R, hA []uint64, curB []S, hB []uint64,
	hashedA, hashedB bool, depth, bitDepth int, rng hashutil.RNG) *core.Node[T] {
	na, nb := len(curA), len(curB)
	if na == 0 || (nb == 0 && j.kind != joinAnti) {
		return nil
	}
	sc := j.dA.Scratch()
	if nb == 0 { // anti join: an empty b side matches nothing
		return j.emitAll(curA, hA, hashedA)
	}
	// Base once the pair is cache-resident — or once EITHER side is small
	// enough that a build-on-it hash join is cheaper than distributing the
	// big side (this also bounds adversarial shapes: a key that is huge on
	// one side only would otherwise ride every level to MaxDepth).
	alpha := j.dA.Alpha()
	if na+nb <= alpha || min(na, nb) <= alpha>>4 || depth >= j.dA.MaxDepth() {
		if !hashedA {
			j.dA.HashAll(curA, hA)
		}
		if !hashedB {
			j.dB.HashAll(curB, hB)
		}
		return j.base(curA, hA, curB, hB)
	}

	// One sampling round for both relations, over the larger side (a pure
	// function of the two lengths, so the plan is deterministic). The other
	// side classifies against the foreign view: same table, same collapse,
	// same window — no skip list, since its records were never sampled.
	var lvA, lvB core.Level[K]
	var planned *core.Level[K]
	if na >= nb {
		lvA = j.dA.PlanLevel(curA, hA, hashedA, true, bitDepth, &rng)
		lvB = j.dB.ForeignLevel(&lvA, nb)
		planned = &lvA
	} else {
		lvB = j.dB.PlanLevel(curB, hB, hashedB, true, bitDepth, &rng)
		lvA = j.dA.ForeignLevel(&lvB, na)
		planned = &lvB
	}
	frng := rng
	nH, nLight := lvA.NH, lvA.NLight

	// Heavy absorption state. A side logs record indices only where the
	// heavy step reads its records: a for every kind but the counting join,
	// b for the inner join alone. The other sides keep per-key counts.
	var aLog, bLog *sideLog
	var aSink, bSink func(sub, hid, idx int)
	if nH > 0 {
		aLog = getSideLog(sc, lvA.NSub, nH, j.kind != joinCount)
		bLog = getSideLog(sc, lvB.NSub, nH, j.kind == joinInner)
		aSink, bSink = aLog.absorbSink(), bLog.absorbSink()
	}

	// Blocked Distributing, both sides through the absorbing engines:
	// survivors land in per-side survivor-sized buffers with their hash
	// planes carried; heavy records stay where they are.
	var lightABuf *parallel.Buf[R]
	var hlABuf *parallel.Buf[uint64]
	destA := func(kept int) ([]R, []uint64) {
		lightABuf = parallel.GetBuf[R](sc, kept)
		hlABuf = parallel.GetBuf[uint64](sc, kept)
		return lightABuf.S, hlABuf.S
	}
	var lightBBuf *parallel.Buf[S]
	var hlBBuf *parallel.Buf[uint64]
	destB := func(kept int) ([]S, []uint64) {
		lightBBuf = parallel.GetBuf[S](sc, kept)
		hlBBuf = parallel.GetBuf[uint64](sc, kept)
		return lightBBuf.S, hlBBuf.S
	}
	startsABuf := parallel.GetBuf[int](sc, nLight+1)
	startsBBuf := parallel.GetBuf[int](sc, nLight+1)
	startsA := j.dA.AbsorbLevel(&lvA, curA, hA, hashedA, bitDepth, startsABuf.S, aSink, destA)
	startsB := j.dB.AbsorbLevel(&lvB, curB, hB, hashedB, bitDepth, startsBBuf.S, bSink, destB)
	planned.ReleaseSample()

	// Broadcast join of the heavy keys, reading both sides in place.
	nd := core.NewNode[T](sc)
	if nH > 0 {
		nd.Own, nd.HOwn = j.emitHeavy(planned, aLog, bLog, curA, curB, depth == 0 && j.emit)
		bLog.release(sc)
		aLog.release(sc)
	}
	planned.ReleaseTable(sc)

	// Local Refining on co-partitioned bucket pairs. Window bits were
	// consumed identically on both sides, so bucket q of a can only match
	// bucket q of b.
	nd.Kids = parallel.GetBuf[*core.Node[T]](sc, nLight)
	nd.Kids.Zero()
	kids := nd.Kids.S
	lightA, hlA := lightABuf.S, hlABuf.S
	lightB, hlB := lightBBuf.S, hlBBuf.S
	j.dA.ForBuckets(planned.Serial, nLight, func(q int) {
		loA, hiA := startsA[q], startsA[q+1]
		loB, hiB := startsB[q], startsB[q+1]
		if loA < hiA && (loB < hiB || j.kind == joinAnti) {
			kids[q] = j.rec(lightA[loA:hiA], hlA[loA:hiA], lightB[loB:hiB], hlB[loB:hiB],
				true, true, depth+1, lvA.NextBit, frng.Fork(uint64(q)))
		}
	})
	hlBBuf.Release()
	lightBBuf.Release()
	hlABuf.Release()
	lightABuf.Release()
	startsBBuf.Release()
	startsABuf.Release()
	return nd
}

// emitHeavy joins the level's heavy keys by broadcast, reading both sides
// in place through the resolved per-key index lists: per key, the inner
// join crosses a's absorbed records in input order with b's, semi and anti
// emit a's records wholesale or not at all (decided by b's count), and the
// counting join emits the key once with the rowCount of its two side
// totals. The output chunk is sized exactly and filled at precomputed
// per-key offsets, so the fill parallelizes over keys without affecting the
// row order. Plane-emitting calls also fill the aligned hash chunk: every
// row of heavy key h shares the table's OrderHash[h], so no record is ever
// re-hashed. lv is the planned level (heavy table alive). carry marks the
// level-0 step of a plane-emitting call, which also copies out the keys
// with rows for downstream adoption (see carryHeavy).
func (j *joiner[R, S, K, T]) emitHeavy(lv *core.Level[K], aLog, bLog *sideLog, curA []R, curB []S, carry bool) (*parallel.Buf[T], *parallel.Buf[uint64]) {
	sc := j.dA.Scratch()
	rt := j.dA.Runtime()
	nH := aLog.nH
	ia, sa := aLog.resolve(rt)
	ib, sb := bLog.resolve(rt)
	offsBuf := parallel.GetBuf[int](sc, nH+1)
	offs := offsBuf.S
	total := 0
	for h := 0; h < nH; h++ {
		offs[h] = total
		ca, cb := int(sa[h+1]-sa[h]), int(sb[h+1]-sb[h])
		switch {
		case j.kind == joinInner:
			total += ca * cb
		case j.kind == joinCount:
			if ca > 0 && cb > 0 {
				total++
			}
		case (cb > 0) == (j.kind == joinSemi):
			total += ca
		}
	}
	offs[nH] = total
	if carry {
		j.carryKeys, j.carryHashes = carryHeavy(lv, sa, sb)
	}
	own := parallel.GetBuf[T](sc, total)
	var hown *parallel.Buf[uint64]
	var hw []uint64
	if j.emit {
		hown = parallel.GetBuf[uint64](sc, total)
		hw = hown.S
	}
	out := own.S
	cancelable := j.dA.Cancelable()
	emit := func(h int) {
		o := offs[h]
		if o == offs[h+1] {
			return
		}
		if j.emit {
			hh := lv.HeavyHash(h)
			for i := o; i < offs[h+1]; i++ {
				hw[i] = hh
			}
		}
		switch j.kind {
		case joinInner:
			bs := ib[sb[h]:sb[h+1]]
			// The broadcast cross product is the join's only loop unbounded
			// in the INPUT size — |a_k| * |b_k| rows for heavy key k can
			// dwarf n — so it checks for cancellation once per a-record
			// (every |b_k| rows), the one op-level checkpoint the driver's
			// per-chunk checks cannot provide. The hoisted flag keeps the
			// no-context path at one predicted-false branch per a-record.
			for _, ra := range ia[sa[h]:sa[h+1]] {
				if cancelable {
					j.dA.CheckCancel()
				}
				rec := curA[ra]
				for _, rb := range bs {
					out[o] = j.joinF(rec, curB[rb])
					o++
				}
			}
		case joinCount:
			out[o] = j.countF(lv.HeavyKey(h), j.rowCount(int64(sa[h+1]-sa[h]), int64(sb[h+1]-sb[h])))
		default:
			for _, ra := range ia[sa[h]:sa[h+1]] {
				out[o] = j.fromA(curA[ra])
				o++
			}
		}
	}
	if lv.Serial {
		for h := 0; h < nH; h++ {
			emit(h)
		}
	} else {
		rt.For(nH, 1, emit)
	}
	offsBuf.Release()
	return own, hown
}

// carryHeavy copies the planned level's heavy keys that have records on
// both sides, with their hashes and in bucket-id order, out of the pooled
// table. They are the output plane's carried keys: a key heavy on the
// planned side but absent from the other joins no row, and a consumer that
// adopted it would plan a heavy key its input lacks. sa and sb are the two
// sides' per-key starts. Returns nils when no heavy key has rows.
func carryHeavy[K any](lv *core.Level[K], sa, sb []int32) ([]K, []uint64) {
	keys, hs := make([]K, 0, lv.NH), make([]uint64, 0, lv.NH)
	for h := 0; h < lv.NH; h++ {
		if sa[h+1] > sa[h] && sb[h+1] > sb[h] {
			keys = append(keys, lv.HeavyKey(h))
			hs = append(hs, lv.HeavyHash(h))
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	return keys, hs
}

// logPageSize is the fixed stride of one heavy-log page, in entries (32 KiB
// pages: big enough that page turnover is rare, small enough that a lone
// heavy record in a subarray does not pin megabytes).
const logPageSize = 1 << 12

// logPage is one fixed-stride heavy-log page. It is a pooled value type
// with its own arena free list: every lease has the same shape, so pages
// recycle perfectly — unlike the previous grow-by-append arena slices,
// whose data-dependent doubling churned the shared []uint64 size classes
// and kept zipfian joins at O(subarrays) steady-state allocations.
type logPage struct {
	e [logPageSize]uint64
	n int // entries filled
}

// logChain is one subarray's heavy log: a list of fixed-stride pages in
// append order. Pooled; the pages slice only grows across reuses.
type logChain struct {
	pages []*logPage
}

// sideLog is one relation's heavy absorption state for a level: a
// per-(subarray, key) count matrix, plus — when the op needs the records
// themselves — per-subarray append-only logs of (key id, record index)
// written in input order by the absorb sink onto pooled fixed-stride pages.
// resolve turns the counts into per-key starts and the logs into per-key
// contiguous index lists (input order across subarrays) without ever
// moving a record.
type sideLog struct {
	sc     *parallel.Scratch
	nH     int
	cnt    *parallel.Buf[int32]
	logs   *parallel.Buf[*logChain] // nil for count-only sides
	idx    *parallel.Buf[int32]     // resolve's index lists (index-logging sides)
	starts *parallel.Buf[int32]     // resolve's per-key starts
}

// getSideLog takes a level's absorption state from the arena. indices
// selects whether record indices are logged (false: counts only).
func getSideLog(sc *parallel.Scratch, nSub, nH int, indices bool) *sideLog {
	l := parallel.GetObj[sideLog](sc)
	l.sc = sc
	l.nH = nH
	l.cnt = parallel.GetBuf[int32](sc, nSub*nH)
	l.cnt.Zero()
	l.logs = nil
	if indices {
		l.logs = parallel.GetBuf[*logChain](sc, nSub)
		l.logs.Zero()
	}
	return l
}

// absorbSink is the side's absorb sink: index-logging when the side logs
// record indices, counting otherwise.
func (l *sideLog) absorbSink() func(sub, hid, idx int) {
	if l.logs != nil {
		return l.sink
	}
	return l.countSink
}

// sink is the index-logging absorb sink: one subarray's entries are
// appended by exactly one fill pass, in input order, so the log needs no
// synchronization. Chains and pages are taken lazily so subarrays without
// heavy records cost nothing.
func (l *sideLog) sink(sub, hid, idx int) {
	c := l.logs.S[sub]
	if c == nil {
		c = parallel.GetObj[logChain](l.sc)
		l.logs.S[sub] = c
	}
	var pg *logPage
	if k := len(c.pages); k > 0 {
		pg = c.pages[k-1]
	}
	if pg == nil || pg.n == logPageSize {
		pg = parallel.GetObj[logPage](l.sc)
		pg.n = 0
		c.pages = append(c.pages, pg)
	}
	pg.e[pg.n] = uint64(hid)<<32 | uint64(idx)
	pg.n++
	l.cnt.S[sub*l.nH+hid]++
}

// countSink is the counting absorb sink of the sides that log no indices.
func (l *sideLog) countSink(sub, hid, idx int) {
	l.cnt.S[sub*l.nH+hid]++
}

// resolve prefixes the count matrix into per-key starts — key h has
// starts[h+1]-starts[h] absorbed records — and, on an index-logging side,
// scatters the logs into per-key contiguous index lists: key h's record
// indices are idx[starts[h]:starts[h+1]], in input order (subarrays outer,
// log order inner). idx is nil on a count-only side. The count matrix is
// consumed (rewritten into scatter offsets); release frees both results.
func (l *sideLog) resolve(rt *parallel.Runtime) (idx, starts []int32) {
	nSub := len(l.cnt.S) / l.nH
	cnt := l.cnt.S
	l.starts = parallel.GetBuf[int32](l.sc, l.nH+1)
	starts = l.starts.S
	run := int32(0)
	for h := 0; h < l.nH; h++ {
		starts[h] = run
		for sub := 0; sub < nSub; sub++ {
			c := cnt[sub*l.nH+h]
			cnt[sub*l.nH+h] = run
			run += c
		}
	}
	starts[l.nH] = run
	if l.logs == nil {
		return nil, starts
	}
	l.idx = parallel.GetBuf[int32](l.sc, int(run))
	out := l.idx.S
	rt.For(nSub, 1, func(sub int) {
		c := l.logs.S[sub]
		if c == nil {
			return
		}
		row := cnt[sub*l.nH : (sub+1)*l.nH]
		for _, pg := range c.pages {
			for _, e := range pg.e[:pg.n] {
				h := e >> 32
				out[row[h]] = int32(uint32(e))
				row[h]++
			}
		}
	})
	return out, starts
}

// release returns the level's absorption state to the arena: every page and
// chain goes back to its own free list, so a steady-state join leases the
// same pages level after level.
func (l *sideLog) release(sc *parallel.Scratch) {
	if l.logs != nil {
		for i, c := range l.logs.S {
			if c != nil {
				for k, pg := range c.pages {
					parallel.PutObj(sc, pg)
					c.pages[k] = nil
				}
				c.pages = c.pages[:0]
				parallel.PutObj(sc, c)
				l.logs.S[i] = nil
			}
		}
		l.logs.Release()
	}
	if l.idx != nil {
		l.idx.Release()
	}
	if l.starts != nil {
		l.starts.Release()
	}
	l.cnt.Release()
	*l = sideLog{}
	parallel.PutObj(sc, l)
}

// emitAll emits every a-record (anti join against an empty b side). A
// plane-emitting call copies the cached hashes alongside — or computes them
// here for a top-level unhashed side (still exactly once per record: these
// records never met a classify sweep).
func (j *joiner[R, S, K, T]) emitAll(curA []R, hA []uint64, hashedA bool) *core.Node[T] {
	sc := j.dA.Scratch()
	own := parallel.GetBuf[T](sc, len(curA))
	for i, r := range curA {
		own.S[i] = j.fromA(r)
	}
	nd := core.NewNode[T](sc)
	nd.Own = own
	if j.emit {
		hown := parallel.GetBuf[uint64](sc, len(curA))
		if hashedA {
			copy(hown.S, hA[:len(curA)])
		} else {
			j.dA.HashAll(curA, hown.S)
		}
		nd.HOwn = hown
	}
	return nd
}

// base runs baseImpl under the stats plane's leaf accounting (both sides
// of the pair count as leaf records; branch-on-nil when stats are
// disabled).
func (j *joiner[R, S, K, T]) base(curA []R, hA []uint64, curB []S, hB []uint64) *core.Node[T] {
	if !j.dA.StatsArmed() {
		return j.baseImpl(curA, hA, curB, hB)
	}
	t0 := time.Now()
	nd := j.baseImpl(curA, hA, curB, hB)
	j.dA.StatLeaf(len(curA)+len(curB), time.Since(t0).Nanoseconds())
	return nd
}

// baseImpl joins one cache-resident bucket pair with a classic hash join
// consuming the cached hash planes: chain one side per key in input order,
// probe with the other in input order. The inner join builds on the
// smaller side (ties to b) and the counting join too (ties to a); semi and
// anti always build on b (their probe side must be a, whose records they
// emit). The direction is a pure function of the two lengths, so the row
// order is deterministic. The counting join tallies each key's probe hits
// and emits the products in build first-occurrence order; its probe stays
// serial. The other kinds emit while probing, in parallel blocks when the
// probe side is large — the min-side cutoff fires long before the pair is
// cache-resident — each block emitting into its own chunk, packed in block
// order.
func (j *joiner[R, S, K, T]) baseImpl(curA []R, hA []uint64, curB []S, hB []uint64) *core.Node[T] {
	na, nb := len(curA), len(curB)
	sc := j.dA.Scratch()
	// probeB: build on a, probe with b — inner rows come out in (b-probe,
	// a-chain) order.
	probeB := (j.kind == joinInner && na < nb) || (j.kind == joinCount && na <= nb)
	var c *core.Chains
	nProbe := na
	if probeB {
		c = core.BuildChains(sc, curA, hA, j.keyA, j.eq)
		nProbe = nb
	} else {
		c = core.BuildChains(sc, curB, hB, j.keyB, j.eq)
	}
	var nd *core.Node[T]
	switch {
	case j.kind == joinCount:
		j.probe(c, curA, hA, curB, hB, probeB, 0, nProbe, nil)
		nd = core.NewNode[T](sc)
		nd.Own = j.countRows(c, curA, curB, probeB)
	case nProbe <= core.SerialCutoff:
		// The common leaf: one serial probe into one chunk, closure-free
		// (a per-leaf closure would dominate steady-state allocations).
		nd = j.probeNode(c, curA, hA, curB, hB, probeB, 0, nProbe)
	default:
		// The block count follows the worker count, but the blocks cover
		// the probe side in order and their chunks pack in block order, so
		// rows stay in probe order at any worker count.
		rt := j.dA.Runtime()
		nBlocks := min(4*parallel.Workers(), (nProbe+core.SerialCutoff-1)/core.SerialCutoff)
		nd = core.NewNode[T](sc)
		nd.Kids = parallel.GetBuf[*core.Node[T]](sc, nBlocks)
		nd.Kids.Zero()
		kids := nd.Kids.S
		rt.Blocks(nProbe, nBlocks, func(b, lo, hi int) {
			kids[b] = j.probeNode(c, curA, hA, curB, hB, probeB, lo, hi)
		})
	}
	c.Release(sc)
	return nd
}

// probeNode probes records [lo, hi) of the probe side into one fresh node,
// whose chunk the probe fills.
func (j *joiner[R, S, K, T]) probeNode(c *core.Chains, curA []R, hA []uint64, curB []S, hB []uint64, probeB bool, lo, hi int) *core.Node[T] {
	nd := core.NewNode[T](j.dA.Scratch())
	j.probe(c, curA, hA, curB, hB, probeB, lo, hi, nd)
	return nd
}

// probeBlock is how many probe records one lookup pass resolves: the probe
// checks for cancellation once per block, amortized between the driver's
// chunk checks.
const probeBlock = 1 << 10

// probe looks up probe-side records [lo, hi) in c, in input order — the
// b side against a table over a when probeB is set, the a side against a
// table over b otherwise — and appends what the join kind emits to nd's
// chunk; on plane-emitting calls nd's hash chunk receives each row's key
// hash (the probe record's cached hash) in lockstep. The counting join only
// tallies each key's hits into c, and passes a nil nd.
func (j *joiner[R, S, K, T]) probe(c *core.Chains, curA []R, hA []uint64, curB []S, hB []uint64, probeB bool, lo, hi int, nd *core.Node[T]) {
	var heads [probeBlock]int32
	var out []T
	var hout []uint64
	cancelable := j.dA.Cancelable()
	for blo := lo; blo < hi; blo += probeBlock {
		if cancelable {
			j.dA.CheckCancel()
		}
		bhi := min(blo+probeBlock, hi)
		hd := heads[:bhi-blo]
		var hp []uint64
		if probeB {
			hp = hB[blo:bhi]
			core.Lookup(c, curA, j.keyA, curB[blo:bhi], hp, j.keyB, j.eq, hd)
		} else {
			hp = hA[blo:bhi]
			core.Lookup(c, curB, j.keyB, curA[blo:bhi], hp, j.keyA, j.eq, hd)
		}
		for o, x := range hd {
			i := blo + o
			switch {
			case j.kind == joinCount:
				if x >= 0 {
					c.Hits[x]++
				}
			case j.kind == joinInner:
				for ; x >= 0; x = c.Next[x] {
					if len(out) == cap(out) {
						out, hout = j.grow(nd, out, hout)
					}
					if probeB {
						out = append(out, j.joinF(curA[x], curB[i]))
					} else {
						out = append(out, j.joinF(curA[i], curB[x]))
					}
					if j.emit {
						hout = append(hout, hp[o])
					}
				}
			case (x >= 0) == (j.kind == joinSemi):
				if len(out) == cap(out) {
					out, hout = j.grow(nd, out, hout)
				}
				out = append(out, j.fromA(curA[i]))
				if j.emit {
					hout = append(hout, hp[o])
				}
			}
		}
	}
	if nd != nil && nd.Own != nil {
		nd.Own.S = out
		if j.emit {
			nd.HOwn.S = hout
		}
	}
}

// grow makes room for one more row in nd's chunk, which holds out (and hout,
// on plane-emitting calls). The chunks grow by re-leasing at double size
// (parallel.GrowBuf), never by append, so they stay in the arena's byte
// classes, which a GC does not empty. They start at one small block rather
// than the probe count: a uniform leaf matches about one probe in eight.
// The hash chunk grows to at least the row chunk's capacity, so the row
// chunk's capacity alone decides when to grow.
func (j *joiner[R, S, K, T]) grow(nd *core.Node[T], out []T, hout []uint64) ([]T, []uint64) {
	sc := j.dA.Scratch()
	if nd.Own != nil {
		nd.Own.S = out
	}
	nd.Own = parallel.GrowBuf(sc, nd.Own, len(out)+1)
	if j.emit {
		if nd.HOwn != nil {
			nd.HOwn.S = hout
		}
		nd.HOwn = parallel.GrowBuf(sc, nd.HOwn, cap(nd.Own.S))
		hout = nd.HOwn.S
	}
	return nd.Own.S, hout
}

// countRows emits the counting join's leaf rows from a probed build: one
// (key, rowCount of build records and probe hits) per key the probe side
// hit, in build first-occurrence order. probeB reports that c was built
// over a.
func (j *joiner[R, S, K, T]) countRows(c *core.Chains, curA []R, curB []S, probeB bool) *parallel.Buf[T] {
	size, hits := c.Size[:c.N], c.Hits[:c.N]
	matched := 0
	for x, n := range size {
		if n > 0 && hits[x] > 0 {
			matched++
		}
	}
	own := parallel.GetBuf[T](j.dA.Scratch(), matched)
	o := 0
	for x, n := range size {
		if n == 0 || hits[x] == 0 {
			continue
		}
		var k K
		na, nb := int64(n), int64(hits[x])
		if probeB {
			k = j.keyA(curA[x])
		} else {
			k = j.keyB(curB[x])
			na, nb = nb, na
		}
		own.S[o] = j.countF(k, j.rowCount(na, nb))
		o++
	}
	return own
}
