package core

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sampling"
)

// This file is the generic distribution driver: the per-level machinery of
// Algorithm 1 that is identical across the framework's three problems
// (semisort, histogram, collect-reduce; Section 3.5 presents them as one
// framework). A Driver owns the user closures, the level-shape parameters
// and the runtime handles, and exposes the per-level pipeline —
//
//	PlanLevel       sampling + the skew-collapse decision + level shape
//	DistributeLevel the fused classify sweep (hash-once, single heavy
//	                probe, light-id extraction) feeding the id-plane
//	                distribution engines, with the hash plane carried
//
// — to a terminal op that decides what a level *means*: the sorter's
// terminal op scatters heavy records to final buckets and groups light
// buckets in base cases; collect-reduce's terminal op absorbs heavy records
// during the sweep (reducing their mapped values per subarray, never moving
// them) and combines light buckets in hash tables. Every engine improvement
// to the driver — sample memoization, collapse, bounds-check-free windows,
// pooled heavy tables — serves all three problems at once.

// collapsePercent is the skew-adaptive threshold: a level whose sample puts
// at least this percent of its draws on heavy keys collapses every light
// record into a single residue bucket (see sampling.Params.CollapsePercent
// and the classify pass below). At this much skew the level is essentially
// a heavy placement; spreading the thin light residue over n_L buckets buys
// nothing and costs an n_L-wide counting matrix per subarray.
const collapsePercent = 75

// SerialCutoff is the subproblem size below which recursion stops spawning
// parallel tasks. It roughly matches the L2 cache in records, so serial
// subtrees are also the cache-resident ones.
const SerialCutoff = 1 << 16

// serialCutoff is the historical package-local name.
const serialCutoff = SerialCutoff

// Driver carries the immutable per-call state shared by every problem built
// on the distribution framework. Instances are recycled through the
// runtime's arena (NewDriver/Release), so steady-state calls do not
// allocate one.
type Driver[R, K any] struct {
	key  func(R) K
	hash func(K) uint64
	eq   func(K, K) bool

	nL           int  // number of light buckets (power of two)
	bBits        uint // log2(nL)
	alpha        int  // base-case threshold
	l            int  // subarray length, fixed across recursion levels
	sampleFactor int  // c in |S| = c * log2(n') per level
	maxDepth     int
	seed         uint64
	disableHeavy bool

	// sink/stats are the call's observability plane (Config.Stats): a
	// pooled padded counter-shard sink the hot paths flush chunk-local
	// tallies into, merged into stats once at release (finishStats). Both
	// nil when stats are disabled — every instrumentation point is
	// branch-on-nil. recBytes caches unsafe.Sizeof(R) for sweep byte
	// accounting.
	sink     *obs.Sink
	stats    *obs.CallStats
	eqTap    *eqTap[K]
	recBytes int64

	// adoptKeys/adoptHashes, when non-nil, are a pipeline plane's carried
	// heavy keys (see Adopt): the next PlanLevel builds its heavy table from
	// them directly and skips the sampling round.
	adoptKeys   []K
	adoptHashes []uint64

	// ctx/ledger carry the call's cancellation state: the context checked
	// at level boundaries and classify chunks, and the lease ledger a
	// firing checkpoint aborts before unwinding (see Config.Ctx/Ledger).
	ctx    context.Context
	ledger *parallel.Ledger

	// rt is the worker pool the call runs on; sc is its buffer arena, the
	// source of every transient buffer (the O(n) auxiliary arrays, the
	// hash planes, counting matrices, cached ids, base-case tables,
	// sample tables, output chunks).
	rt *parallel.Runtime
	sc *parallel.Scratch
}

// eqTap is the pooled capture behind the counted eq wrapper: fn is a
// method value over the tap itself, built on the object's first lease and
// kept across pooling, so arming the eq-counter hook or the stats plane
// costs no allocation in steady state. counter/snk/inner are per-call and
// cleared at release.
type eqTap[K any] struct {
	counter *atomic.Int64
	snk     *obs.Sink
	inner   func(K, K) bool
	fn      func(K, K) bool
}

func (t *eqTap[K]) call(x, y K) bool {
	if t.counter != nil {
		t.counter.Add(1)
	}
	if t.snk != nil {
		t.snk.CountEq()
	}
	return t.inner(x, y)
}

// NewDriver takes a pooled driver for an n-record call from the configured
// runtime's arena. cfg defaults are applied here.
func NewDriver[R, K any](n int, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg Config) *Driver[R, K] {
	cfg = cfg.WithDefaults()
	rt := parallel.Or(cfg.Runtime)
	d := parallel.GetObj[Driver[R, K]](rt.Scratch())
	d.init(n, key, hash, eq, cfg, rt)
	return d
}

// init fills a (pooled) driver. cfg must already have its defaults applied
// and rt must be cfg's resolved runtime.
func (d *Driver[R, K]) init(n int, key func(R) K, hash func(K) uint64, eq func(K, K) bool, cfg Config, rt *parallel.Runtime) {
	if n > dist.MaxLen {
		panic("semisort: input longer than 2^31-1 records")
	}
	var sink *obs.Sink
	if cfg.Stats != nil {
		// The sink is leased from the arena like every other per-call
		// object: steady-state stats-enabled calls allocate nothing. Shards
		// scale with the pool so concurrent flushers spread out.
		sink = parallel.GetObj[obs.Sink](rt.Scratch())
		sink.Grow(rt.MaxSlots())
	}
	var tap *eqTap[K]
	if cfg.eqCounter != nil || sink != nil {
		// Wrap once here so every digest-gated eq fallthrough in the call —
		// driver, sampling, and any terminal op that takes its eq from
		// Driver.Eq — funnels through one counted closure (shared by the
		// eq-counter test hook and the stats plane, so the two always
		// agree). The capture is a pooled eqTap rather than a closure
		// literal: the func value is built once per pooled object and
		// reused, keeping armed steady-state calls alloc-free.
		tap = parallel.GetObj[eqTap[K]](rt.Scratch())
		tap.counter, tap.snk, tap.inner = cfg.eqCounter, sink, eq
		if tap.fn == nil {
			tap.fn = tap.call
		}
		eq = tap.fn
	}
	*d = Driver[R, K]{
		key:          key,
		hash:         hash,
		eq:           eq,
		nL:           cfg.LightBuckets,
		alpha:        cfg.BaseCase,
		sampleFactor: cfg.SampleFactor,
		maxDepth:     cfg.MaxDepth,
		seed:         cfg.Seed,
		disableHeavy: cfg.DisableHeavy,
		sink:         sink,
		stats:        cfg.Stats,
		eqTap:        tap,
		recBytes:     int64(unsafe.Sizeof(*new(R))),
		ctx:          cfg.Ctx,
		ledger:       cfg.Ledger,
		rt:           rt,
		sc:           rt.Scratch(),
	}
	// nL is a power of two (enforced by Config.WithDefaults), so light
	// bucket ids are exact hash-bit windows.
	d.bBits = uint(ceilLog2(d.nL))
	d.l = (n + cfg.MaxSubarrays - 1) / cfg.MaxSubarrays
	if d.l < cfg.MinSubarray {
		d.l = cfg.MinSubarray
	}
}

// Release returns the driver to the arena. The closures it captured are
// dropped so pooled drivers do not pin caller state between calls.
func (d *Driver[R, K]) Release() {
	d.finishStats()
	sc := d.sc
	*d = Driver[R, K]{}
	parallel.PutObj(sc, d)
}

// finishStats is the stats plane's merge point: the sink's shards drain
// into the caller's CallStats exactly once, and the (now zeroed) sink pools
// back. Call end is the barrier — every level and leaf of the call has
// completed before a terminal op releases its driver. Terminal ops that
// pool their embedding object without Driver.Release (the sorter) call it
// directly.
func (d *Driver[R, K]) finishStats() {
	if t := d.eqTap; t != nil {
		// Drop the captured closures (never pin caller state in the pool)
		// but keep t.fn — it references only t, and reusing it is what
		// makes the armed path alloc-free.
		t.counter, t.snk, t.inner = nil, nil, nil
		parallel.PutObj(d.sc, t)
		d.eqTap = nil
	}
	if d.sink == nil {
		return
	}
	d.sink.Drain(d.stats)
	parallel.PutObj(d.sc, d.sink)
	d.sink, d.stats = nil, nil
}

// StatsArmed reports whether the call carries a stats sink, so terminal ops
// can skip their leaf timing reads when disabled.
func (d *Driver[R, K]) StatsArmed() bool { return d.sink != nil }

// StatLeaf records one sequentially solved base-case bucket into the stats
// plane (no-op when disabled). Terminal ops call it once per base-case
// bucket with the bucket's record count and elapsed nanoseconds.
func (d *Driver[R, K]) StatLeaf(records int, ns int64) {
	if d.sink != nil {
		d.sink.Leaf(records, ns)
	}
}

// Eq is the call's key-equality closure — the user's eq, wrapped by the
// eq-counter when Config.WithEqCounter armed one. Terminal ops that keep
// their own copy of eq (the relational base cases, collect's combine
// tables) must read it from here rather than from the raw user argument,
// so their digest-gated fallthroughs are counted under the same contract.
func (d *Driver[R, K]) Eq() func(K, K) bool { return d.eq }

// Alpha is the base-case threshold (records per sequentially solved bucket).
func (d *Driver[R, K]) Alpha() int { return d.alpha }

// MaxDepth is the recursion guard depth.
func (d *Driver[R, K]) MaxDepth() int { return d.maxDepth }

// Seed is the sampling seed of the call.
func (d *Driver[R, K]) Seed() uint64 { return d.seed }

// Runtime is the worker pool the call runs on.
func (d *Driver[R, K]) Runtime() *parallel.Runtime { return d.rt }

// Scratch is the runtime's buffer arena.
func (d *Driver[R, K]) Scratch() *parallel.Scratch { return d.sc }

// Ledger is the call's lease ledger (nil when the caller installed none).
func (d *Driver[R, K]) Ledger() *parallel.Ledger { return d.ledger }

// Cancelable reports whether the call carries a context at all, so hot
// loops can hoist the nil check out of their bodies and keep the no-context
// path at one predictable branch.
func (d *Driver[R, K]) Cancelable() bool { return d.ctx != nil }

// CheckCancel is the driver's cancellation checkpoint: if the call's
// context has fired, it aborts the lease ledger and raises the engine's
// cancellation panic (see Config.CheckCancel). The driver plants it at
// every PlanLevel (so each recursion node checks on entry) and at the top
// of every classify chunk (so an O(n) sweep cancels within one chunk);
// terminal ops with their own unbounded loops — the join's heavy
// broadcast — add their own. A nil context costs one branch.
func (d *Driver[R, K]) CheckCancel() {
	if d.ctx == nil {
		return
	}
	if err := d.ctx.Err(); err != nil {
		if d.ledger != nil {
			d.ledger.Abort()
		}
		panic(&parallel.Canceled{Err: err})
	}
}

// sampleParams sizes one sampling round for an n-record level: |S| =
// c * log2(n) draws, heavy threshold log2(n)/2 occurrences (Section 3.1
// sets theta = Theta(log n'); halving the paper's constant keeps the
// whp guarantee while promoting moderately frequent keys too — every
// promoted key's records skip light-id work, hash carriage and the base
// case, which is where skewed inputs spend their time). Deeper, smaller
// levels draw proportionally smaller samples.
func (d *Driver[R, K]) sampleParams(n int) sampling.Params {
	logN := ceilLog2(n)
	thresh := logN / 2
	if thresh < 2 {
		thresh = 2
	}
	return sampling.Params{
		SampleSize:      d.sampleFactor * logN,
		Thresh:          thresh,
		IDBase:          d.nL,
		CollapsePercent: collapsePercent,
		MaxHeavy:        dist.MaxBuckets - 1 - d.nL, // nLight + n_H must fit bucket ids
		Scratch:         d.sc,
	}
}

// HashAll fills h[i] = hash(key(a[i])) serially. The hot path never runs
// it — every distribution level fuses hashing into its classify sweep —
// but inputs that hit a base case before any distribution (n <= alpha)
// still need the cached hashes the hash-consuming base cases read.
func (d *Driver[R, K]) HashAll(a []R, h []uint64) {
	for i := range a {
		h[i] = d.hash(d.key(a[i]))
	}
	if d.sink != nil {
		d.sink.AddLocal(obs.CtrHashCalls, int64(len(a)))
	}
}

// levelBits returns the window of hash bits that determines light bucket
// ids after bitDepth windows have been consumed. Algorithm 1 states id =
// h(k) mod n_L; across recursion levels the window must move (window d
// uses bits [d*b, (d+1)*b)), otherwise a light bucket could never split.
// Once the 64 hash bits are exhausted the hash is remixed with the window
// index as a salt.
func (d *Driver[R, K]) levelBits(h uint64, bitDepth int) uint64 {
	shift := uint(bitDepth) * d.bBits
	if shift+d.bBits <= 64 {
		return h >> shift
	}
	return hashutil.Seeded(h, uint64(bitDepth))
}

// ForBuckets iterates a level's light buckets either in parallel or on the
// calling goroutine.
func (d *Driver[R, K]) ForBuckets(serial bool, nLight int, body func(j int)) {
	if serial {
		for j := 0; j < nLight; j++ {
			body(j)
		}
		return
	}
	d.rt.For(nLight, 1, body)
}

// Level is the shape of one distribution level, decided by PlanLevel's
// sampling round: the heavy table (nil when no key qualified), the fused
// sampler's skip list (top level only), and the bucket geometry the
// terminal op distributes and recurses over.
type Level[K any] struct {
	ht         *sampling.HeavyTable[K]
	sampledBuf *parallel.Buf[int32]
	sampled    []int32

	// Collapsed reports the skew-adaptive light collapse: every light
	// record goes to the single residue bucket 0, heavy ids start at 1,
	// and no hash window is consumed (see collapsePercent).
	Collapsed bool
	// NLight is the number of light buckets (n_L, or 1 when collapsed).
	NLight int
	// NH is the number of heavy keys promoted by the sample.
	NH int
	// Serial reports that the whole subtree runs on the calling goroutine:
	// below SerialCutoff, scheduling thousands of microsecond tasks costs
	// more than the work (the subproblem is cache-resident anyway).
	Serial bool
	// NSub is the number of counting subarrays the level distributes over
	// (1 when Serial).
	NSub int
	// NextBit is the hash-window depth for the level's children (a
	// collapsed level burns no window, so it can differ from depth).
	NextBit int
}

// Adopt hands the driver a pipeline plane's carried heavy keys (with their
// user hashes, in the producer's bucket-id order): the next PlanLevel —
// the consumer's top level — builds its heavy table directly from them and
// skips the sampling round entirely. The adopted set is consumed once;
// deeper levels sample normally. An adopted level never collapses (collapse
// needs the sample's heavy-mass estimate, which adoption does not have).
// Call between NewDriver and the first PlanLevel.
func (d *Driver[R, K]) Adopt(keys []K, hashes []uint64) {
	d.adoptKeys, d.adoptHashes = keys, hashes
}

// PlanLevel runs one sampling round over cur and decides the level shape.
// hashed reports whether hcur already holds every record's user hash (false
// only at the top level, which samples through the memoizing fused build so
// the whole call stays at exactly one user hash per record); allowCollapse
// gates the skew collapse (the in-place sorter declines it). rng is
// advanced by the sampling draws. An adopted heavy set (see Adopt) replaces
// the sampling round and leaves rng untouched.
func (d *Driver[R, K]) PlanLevel(cur []R, hcur []uint64, hashed, allowCollapse bool, bitDepth int, rng *hashutil.RNG) Level[K] {
	d.CheckCancel()
	var t0 time.Time
	if d.sink != nil {
		t0 = time.Now()
	}
	adopted := d.adoptKeys != nil
	var lv Level[K]
	if adopted {
		keys, hs := d.adoptKeys, d.adoptHashes
		d.adoptKeys, d.adoptHashes = nil, nil
		if !d.disableHeavy && len(keys) > 0 {
			if m := dist.MaxBuckets - 1 - d.nL; len(keys) > m {
				keys, hs = keys[:m], hs[:m]
			}
			lv.ht = sampling.Adopt(keys, hs, d.nL, d.sc)
		}
	} else if !d.disableHeavy {
		p := d.sampleParams(len(cur))
		if !allowCollapse {
			p.CollapsePercent = 0
		}
		var stats sampling.Stats
		if hashed {
			lv.ht, stats = sampling.BuildHashed(cur, hcur, d.key, d.eq, p, rng)
		} else {
			lv.ht, lv.sampledBuf, stats = sampling.BuildFused(cur, hcur, d.key, d.hash, d.eq, p, rng)
			if lv.sampledBuf != nil {
				lv.sampled = lv.sampledBuf.S
			}
		}
		lv.Collapsed = stats.Collapsed
	}
	lv.NLight = d.nL
	if lv.Collapsed {
		lv.NLight = 1
	}
	if lv.ht != nil {
		lv.NH = lv.ht.NH
	}
	lv.Serial = len(cur) <= SerialCutoff
	lv.NSub = 1
	if !lv.Serial {
		lv.NSub = dist.NumSubarrays(len(cur), d.l)
	}
	lv.NextBit = bitDepth
	if !lv.Collapsed {
		lv.NextBit++ // a real light split consumes one hash window
	}
	if d.sink != nil {
		// len(lv.sampled) is the fused build's fresh hash computations,
		// memoized into the plane; classify's skip cursor reads them back
		// instead of re-hashing, so counting them here never double counts.
		d.sink.Level(lv.Serial, lv.Collapsed, adopted, lv.NH, len(lv.sampled),
			time.Since(t0).Nanoseconds())
	}
	return lv
}

// HeavyKey returns heavy key h (0 <= h < NH) in bucket-id order. Only valid
// before ReleaseTable.
func (lv *Level[K]) HeavyKey(h int) K { return lv.ht.Order[h] }

// HeavyHash returns heavy key h's user hash. The table is the only place a
// top-level heavy hash exists (the fused classify sweep never writes heavy
// hashes into the plane), so plane-emitting ops read it instead of
// re-hashing. Only valid before ReleaseTable.
func (lv *Level[K]) HeavyHash(h int) uint64 { return lv.ht.OrderHash[h] }

// ReleaseSample returns the fused sampler's skip list to the arena; the
// terminal op calls it once its distribution has consumed the list.
func (lv *Level[K]) ReleaseSample() {
	if lv.sampledBuf != nil {
		lv.sampledBuf.Release()
		lv.sampledBuf = nil
		lv.sampled = nil
	}
}

// ReleaseTable pools the level's heavy table; its storage feeds the next
// level's build. Call after the id plane (and, for collect-reduce, the
// heavy result keys) have absorbed every classification.
func (lv *Level[K]) ReleaseTable(sc *parallel.Scratch) {
	if lv.ht != nil {
		lv.ht.Release(sc)
		lv.ht = nil
	}
}

// ForeignLevel adapts a level planned over another relation to this driver:
// the sampled relation's heavy table, collapse decision and bucket geometry
// are shared — so both relations of a two-input op (an equi-join) classify
// against one sample per level and co-partition bucket for bucket — while
// the serial/subarray shape is recomputed for this driver's n-record input.
// The fused sampler's skip list is NOT carried (its indices refer to the
// sampled relation), so this driver's classify hashes every unsampled
// record itself, keeping both relations at exactly one user hash per record.
// Both drivers must be built from the same Config (same light-bucket count,
// so hash-bit windows agree level for level); lv's table must stay alive —
// ReleaseTable on the original — until this level's distribution is done.
func (d *Driver[R, K]) ForeignLevel(lv *Level[K], n int) Level[K] {
	if !lv.Collapsed && lv.NLight != d.nL {
		panic("core: ForeignLevel needs both drivers configured with the same LightBuckets")
	}
	flv := Level[K]{
		ht:        lv.ht,
		Collapsed: lv.Collapsed,
		NLight:    lv.NLight,
		NH:        lv.NH,
		NextBit:   lv.NextBit,
	}
	flv.Serial = n <= SerialCutoff
	flv.NSub = 1
	if !flv.Serial {
		flv.NSub = dist.NumSubarrays(n, d.l)
	}
	return flv
}

// classify is the per-level bucket-id pass, the only place a level ever
// classifies a record: for records [lo, hi) it resolves the cached user
// hash (computing it on the fly when the plane is not filled yet — the
// fused top level), probes the heavy table at most once, and writes the
// 2-byte bucket id plus the bucket count. The distribution engine replays
// the id plane in its scatter, so hashing, heavy probing and light-id
// extraction are all exactly-once per record per level by construction.
//
// At the fused top level a freshly computed hash is cached into the plane
// only when the record turns out light: heavy records are final after this
// level (moved to a final bucket, or absorbed on the spot) and their hashes
// are never read again, so the plane write (pure memory traffic on heavily
// skewed inputs) is skipped. The plane therefore holds defined values
// exactly for records in light buckets — which are the only slices any
// deeper consumer ever sees.
//
// sampled lists, in increasing order, record indices whose hash the
// sampling round already computed into hcur (nil when hashed); collapsed
// means every light record goes to residue bucket 0 and heavy ids start at
// 1 (see collapsePercent).
//
// absorb is the terminal op's heavy sink: when non-nil, a heavy record is
// handed to absorb(sub, hid, j) — subarray index, heavy index in [0, NH),
// global record index — in input order within its subarray, marked
// dist.Absorbed in the id plane, and neither counted nor scattered
// (collect-reduce reduces it into a per-subarray accumulator right here).
// When nil (the sorter), heavy records take their heavy bucket id and are
// scattered to final buckets like any other.
func (d *Driver[R, K]) classify(cur []R, hcur []uint64, ids []uint16, counts []int32,
	ht *sampling.HeavyTable[K], hashed, collapsed bool, sampled []int32, lo, hi, bitDepth int,
	absorb func(sub, hid, j int)) {
	// One cancellation checkpoint per chunk: a chunk is one subarray (or
	// one serial bucket), so a firing context stops an O(n) sweep within
	// one subarray's worth of work on every participant.
	d.CheckCancel()
	nLmask := uint64(d.nL - 1)
	// Heavy ids start right after the light buckets (IDBase, or 1 when
	// collapsed); the absorb sink gets them rebased to [0, NH).
	idBase := d.nL
	if collapsed {
		idBase = 1
	}
	sub := 0
	if absorb != nil {
		sub = lo / d.l
	}
	probes, freshN := 0, 0
	// Position the sampled-index skip cursor at this chunk: records the
	// sampling round already hashed are read back from the plane instead
	// of re-running the user hash.
	next, skipAt := sampled, -1
	if !hashed && len(sampled) > 0 {
		p := sort.Search(len(sampled), func(i int) bool { return int(sampled[i]) >= lo })
		next = sampled[p:]
		if len(next) > 0 {
			skipAt = int(next[0])
			next = next[1:]
		}
	}
	// The loop runs over 0-based windows of equal length so every index is
	// provably in bounds (no per-record bounds checks in the hot loop).
	curW, hcurW := cur[lo:hi], hcur[lo:hi:hi]
	ids = ids[:len(curW)]
	skipAt -= lo
	for j := range curW {
		var h uint64
		fresh := false
		if hashed {
			h = hcurW[j]
		} else if j == skipAt {
			h = hcurW[j]
			skipAt = -1
			if len(next) > 0 {
				skipAt = int(next[0]) - lo
				next = next[1:]
			}
		} else {
			h = d.hash(d.key(curW[j]))
			fresh = true
			freshN++
		}
		id := -1
		if ht != nil {
			probes++
			if sl := ht.Probe(h); sl >= 0 {
				if hid := ht.Resolve(sl, h, d.key(curW[j]), d.eq); hid >= 0 {
					id = int(hid)
				}
			}
		}
		if id < 0 {
			if collapsed {
				id = 0
			} else {
				id = int(d.levelBits(h, bitDepth) & nLmask)
			}
			if fresh {
				hcurW[j] = h
			}
		} else if absorb != nil {
			absorb(sub, id-idBase, lo+j)
			ids[j] = dist.Absorbed
			continue
		}
		ids[j] = uint16(id)
		counts[id]++
	}
	if d.sink != nil {
		d.sink.Classify(int64(hi-lo), int64(freshN), int64(probes))
	}
}

// DistributeLevel runs the sorter's Blocked Distributing step (cur ->
// other, hcur -> hother) through the id plane: AbsorbLevel with no absorb
// sink. All NLight+NH buckets are scattered — starts must have NLight+NH+1
// entries; bucket j occupies other[starts[j]:starts[j+1]] afterwards — and
// the hash plane is carried for light buckets only (heavy buckets are final
// and never re-read their hashes: the hLive dead suffix).
func (d *Driver[R, K]) DistributeLevel(lv *Level[K], cur, other []R, hcur, hother []uint64,
	hashed bool, bitDepth int, starts []int) []int {
	return d.AbsorbLevel(lv, cur, hcur, hashed, bitDepth, starts, nil,
		func(int) ([]R, []uint64) { return other, hother })
}

// AbsorbLevel is the one level-scatter step of every terminal op: the fused
// classify sweep fills ids and counts, the dist engine prefixes and
// replays. With an absorb sink (the collect family) heavy records are
// consumed by the sink during the sweep (see classify) and never moved;
// only the NLight light buckets are scattered — starts must have NLight+1
// entries — every survivor carrying its cached hash. cur and hcur are read,
// never written (beyond the top level's lazy hash-plane fill), so the
// top-level caller may pass its immutable input directly. dest(kept)
// supplies the right-sized destination once the survivor count is exact
// (see dist.StableAbsorbInto): under heavy skew the level's scatter buffer
// is O(survivors), not O(n). With a nil sink every record is scattered (see
// DistributeLevel).
func (d *Driver[R, K]) AbsorbLevel(lv *Level[K], cur []R, hcur []uint64,
	hashed bool, bitDepth int, starts []int,
	absorb func(sub, hid, j int), dest func(kept int) ([]R, []uint64)) []int {
	n := len(cur)
	ht, sampled, collapsed := lv.ht, lv.sampled, lv.Collapsed
	nB := lv.NLight
	if absorb == nil {
		nB += lv.NH // the sorter scatters heavy records to final buckets
	}
	var t0 time.Time
	if d.sink != nil {
		t0 = time.Now()
	}
	var out []int
	if lv.Serial {
		out = dist.SerialAbsorbInto(d.sc, cur, hcur, nB, lv.NLight,
			func(ids []uint16, counts []int32) {
				d.classify(cur, hcur, ids, counts, ht, hashed, collapsed, sampled, 0, n, bitDepth, absorb)
			}, starts, dest)
	} else {
		out = dist.StableAbsorbInto(d.rt, cur, hcur, nB, d.l, lv.NLight,
			func(lo, hi int, ids []uint16, counts []int32) {
				d.classify(cur, hcur, ids, counts, ht, hashed, collapsed, sampled, lo, hi, bitDepth, absorb)
			}, starts, dest)
	}
	if d.sink != nil {
		// Derived once from the prefix array, never counted per record:
		// the survivors were scattered, the rest consumed in place by the
		// sink, and the hash plane carried for the light prefix only.
		scattered := int64(out[len(out)-1])
		d.sink.Sweep(scattered, int64(len(cur))-scattered,
			dist.SweepBytes(d.recBytes, scattered, int64(out[lv.NLight])),
			time.Since(t0).Nanoseconds())
	}
	return out
}
