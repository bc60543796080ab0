package semisort

import (
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rel"
	"repro/internal/strkey"
)

// Query begins a fused pipeline over a: a fluent chain of relational stages
// (Dedup, Sort, GroupBy, JoinEq) ending in one terminal (Run, Groups,
// Histogram, CountDistinct, TopK). The pipeline's fusion contract is
// hash-once-per-pipeline: each stage hands its successor everything it
// already knows about its output — the per-record cached hashes, the level-0
// heavy keys its sampling promoted, whether equal keys are contiguous
// (grouped) or unique (distinct) — so the chain as a whole calls hash at
// most once per input record, where the same ops composed by hand would
// re-hash every intermediate result. Stages that can exploit upstream
// structure skip the distribution driver outright: dedup over grouped data
// is a gather, a histogram over grouped data reads group lengths, a join of
// two grouped inputs matches groups (one hash per group), and a join feeding
// a counting terminal (Histogram, TopK, CountDistinct) never materializes a
// joined row — per-key counts multiply instead, and a Dedup ahead of it
// never runs: the join counts that side by key presence.
//
// A pipeline is single-use: each stage consumes its receiver and each
// terminal releases the pipeline's pooled state. Invoking any stage or
// terminal after a terminal ended the pipeline panics with a
// *PipelineConsumedError naming the offending call (errors.Is-matchable
// against ErrPipelineConsumed); build a fresh Query per query instead of
// caching pipeline values. Stages never modify a (the first stage that
// needs to reorder records copies once); intermediate results live in
// pipeline-owned slices. Results are deterministic for a fixed seed;
// output order is deterministic but unspecified, matching the
// non-pipelined ops.
//
// Failure containment matches the standalone ops: every stage and terminal
// runs under the call guard, so a panic in a user callback surfaces as a
// *PanicError and a WithContext cancellation is delivered by the
// error-returning terminals (RunE, GroupsE, HistogramE, TopKE,
// CountDistinctE). A faulted stage discards the pipeline's intermediate
// state — never returning possibly half-mutated buffers to the arena — and
// the fault rides the chain: later stages are no-ops and the terminal
// reports it, so a fluent chain needs exactly one error check, at the end.
//
//	top := semisort.Query(orders, orderUser, hashU64, eqU64).
//	    Dedup().
//	    JoinEq(clicks, clickUser).
//	    TopK(10)
func Query[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) *Pipeline[R, K] {
	c := newCore(buildConfig(opts), a, key, hash, eq)
	return &Pipeline[R, K]{pipeBase[R, K]{&c}}
}

// Joined is one row of a fused equi-join: the matched records of the two
// sides. Downstream stages key joined rows by the join key (read from Left).
type Joined[R any] struct {
	Left, Right R
}

// Pipeline is an in-flight fused query; see Query, and QueryStr for string
// keys. The zero value is not usable.
type Pipeline[R, K any] struct {
	pipeBase[R, K]
}

// Dedup keeps one record per distinct key (the key's first record in input
// order) and marks the output distinct. Like JoinEq it is deferred to its
// consumer. A join feeding a counting terminal (Histogram, TopK,
// CountDistinct) counts this side by key presence, min(count, 1), in its
// own classify sweep, and CountDistinct counts the data as it is: neither
// runs the dedup. Every other consumer runs it first, as a stage of its
// own: grouped input needs one gather and no hashing; otherwise the dedup
// distributes the records over the input plane (cached hashes, adopted
// heavy keys) and emits the output's hash plane for the next stage. A callback
// fault in a deferred dedup surfaces from the consumer that runs it.
func (p *Pipeline[R, K]) Dedup() *Pipeline[R, K] { p.e.dedup("Dedup"); return p }

// Sort groups equal-key records contiguously (semisort=) and records the
// group boundaries, so every downstream stage sees grouped data. An upstream
// hash plane is consumed in place of re-hashing: the sort issues zero user
// hash calls then. The first Sort on caller-provided data copies it once;
// pipeline-owned data sorts in place.
func (p *Pipeline[R, K]) Sort() *Pipeline[R, K] { p.e.sort("Sort"); return p }

// GroupBy is Sort under its relational name: group equal-key records
// contiguously and carry the boundaries forward.
func (p *Pipeline[R, K]) GroupBy() *Pipeline[R, K] { p.e.sort("GroupBy"); return p }

// JoinEq stages the inner equi-join of the pipeline with relation b (joined
// on eq(key(r), keyB(s)); both sides key into the same K). The join is
// deferred: a counting terminal (Histogram, TopK, CountDistinct) computes
// per-key counts and never materializes a joined row — under skew the join
// can emit far more rows than either input holds, and this is the
// structural win of fusing — while any other continuation materializes
// Joined rows once, emitting their plane for further fused stages. On a
// string pipeline b's keys build into the second slot of the pipeline's
// arena plane, so cross-relation equality is a contiguous byte compare
// behind the digest gate. The receiver is consumed. A joined pipeline
// cannot join again (Go's generics forbid the unbounded Joined[Joined[...]]
// type growth a fluent re-join would need); chain a fresh Query over its Run
// output instead.
func (p *Pipeline[R, K]) JoinEq(b []R, keyB func(R) K) *JoinedPipeline[R, K] {
	if s, ok := any(p.e).(*arenaPipe[R, strkey.Rec]); ok {
		return joinedPipeline[R, K](strJoin(s, "JoinEq", b, appendStr(any(keyB).(func(R) string))))
	}
	c := p.e.(*pipeCore[R, K])
	c.check("JoinEq")
	c.staged("JoinEq", c.settle)
	return joinedPipeline[R, K](join(c, &pipeCore[R, K]{data: b, key: keyB}))
}

// JoinEqP is JoinEq with another pipeline as the right side, joined on the
// two pipelines' keys. Two Query pipelines fuse: both sides' planes fuse
// into the join (neither side re-hashes what upstream already hashed), and
// when both sides arrive grouped the join skips the driver entirely and
// matches groups — one hash call per group instead of one per record. A
// pending Dedup on either side folds into a counting terminal as it does
// for JoinEq's left side. A string pipeline (QueryStr, QueryKeyed) keeps its
// keys in an arena plane of its own, so any pairing with one does not fuse:
// b runs to its records, as its RunE would (a fault of b rides into the
// join), and the pipeline joins them as JoinEq would, on b's key. A Query
// pipeline reads a string b's key through b's append-style materializer,
// one allocation per key call. Both pipelines are consumed.
func (p *Pipeline[R, K]) JoinEqP(b *Pipeline[R, K]) *JoinedPipeline[R, K] {
	pc, _ := p.e.(*pipeCore[R, K])
	bc, _ := b.e.(*pipeCore[R, K])
	if pc != nil && bc != nil {
		pc.check("JoinEqP")
		bc.check("JoinEqP")
		pc.staged("JoinEqP", pc.settle)
		bc.staged("JoinEqP", bc.settle)
		return joinedPipeline[R, K](join(pc, bc))
	}
	bs, _ := any(b.e).(*arenaPipe[R, strkey.Rec])
	if pc != nil {
		pc.check("JoinEqP")
		rows, err := b.e.runE("JoinEqP")
		if err != nil {
			pc.fail(err)
		}
		appendKeyB := bs.appendKey
		keyB := func(r R) string { return string(appendKeyB(nil, r)) }
		pc.staged("JoinEqP", pc.settle)
		return joinedPipeline[R, K](join(pc, &pipeCore[R, K]{data: rows, key: any(keyB).(func(R) K)}))
	}
	ps := any(p.e).(*arenaPipe[R, strkey.Rec])
	ps.check("JoinEqP")
	var appendKeyB strkey.AppendKey[R]
	if bs != nil {
		appendKeyB = bs.appendKey
	} else {
		appendKeyB = appendStr(any(bc.key).(func(R) string))
	}
	rows, err := b.e.runE("JoinEqP")
	if err != nil {
		ps.fail(err)
	}
	return joinedPipeline[R, K](strJoin(ps, "JoinEqP", rows, appendKeyB))
}

// JoinedPipeline is a pipeline over the rows of a staged equi-join (see
// Pipeline.JoinEq). It offers every stage and terminal except a further
// join.
type JoinedPipeline[R, K any] struct {
	pipeBase[Joined[R], K]
}

// joinedPipeline wraps a join's engine: a *pipeCore[Joined[R], K], or on a
// string pipeline (K is string) an *arenaPipe over the joined span rows.
func joinedPipeline[R, K any](e any) *JoinedPipeline[R, K] {
	return &JoinedPipeline[R, K]{pipeBase[Joined[R], K]{e.(pipeEngine[Joined[R], K])}}
}

// Dedup keeps one joined row per distinct join key; see Pipeline.Dedup.
func (p *JoinedPipeline[R, K]) Dedup() *JoinedPipeline[R, K] { p.e.dedup("Dedup"); return p }

// Sort groups equal-key joined rows contiguously; see Pipeline.Sort.
func (p *JoinedPipeline[R, K]) Sort() *JoinedPipeline[R, K] { p.e.sort("Sort"); return p }

// GroupBy is Sort under its relational name.
func (p *JoinedPipeline[R, K]) GroupBy() *JoinedPipeline[R, K] { p.e.sort("GroupBy"); return p }

// pipeEngine runs one pipeline's stages and terminals, T being the rows the
// terminals return: *pipeCore runs them over the caller's records (Query,
// and every join of a Query pipeline), *arenaPipe over a string pipeline's
// span plane (QueryStr, QueryKeyed). The joins are not part of it: as
// pipeCore methods they would instantiate a join of joined rows, an
// instantiation cycle Go rejects, so Pipeline stages them itself.
type pipeEngine[T, K any] interface {
	dedup(op string)
	sort(op string)
	runE(op string) ([]T, error)
	groupsE(op string) ([]T, []Group, error)
	histogramE(op string) ([]KeyCount[K], error)
	topKE(op string, k int) ([]KeyCount[K], error)
	countDistinctE(op string) (int64, error)
	stageStats() []StageStats
}

// pipeBase carries the terminals Pipeline and JoinedPipeline share. In
// their documentation T is R on a Pipeline and Joined[R] on a
// JoinedPipeline.
type pipeBase[T, K any] struct {
	e pipeEngine[T, K]
}

// Run materializes the pipeline's rows (T is R on a Pipeline, Joined[R] on a
// JoinedPipeline) and ends the pipeline.
func (p *pipeBase[T, K]) Run() []T {
	out, err := p.e.runE("Run")
	mustCall(err)
	return out
}

// RunE is Run with an error return for cancellable pipelines: combined with
// WithContext on Query it returns ctx.Err() once the query has unwound and
// its pooled state is discarded. A fault in an earlier stage is reported
// here too — one error check covers the whole fluent chain. T is R on a
// Pipeline and Joined[R] on a JoinedPipeline.
func (p *pipeBase[T, K]) RunE() ([]T, error) { return p.e.runE("RunE") }

// Groups materializes the pipeline's rows grouped by key (sorting first if
// no upstream stage grouped them) and returns them with their group
// boundaries; T is R on a Pipeline and Joined[R], grouped by join key, on a
// JoinedPipeline. It ends the pipeline.
func (p *pipeBase[T, K]) Groups() ([]T, []Group) {
	out, groups, err := p.e.groupsE("Groups")
	mustCall(err)
	return out, groups
}

// GroupsE is Groups with an error return for cancellable pipelines; see
// RunE for the contract. T is R on a Pipeline and Joined[R] on a
// JoinedPipeline.
func (p *pipeBase[T, K]) GroupsE() ([]T, []Group, error) { return p.e.groupsE("GroupsE") }

// Histogram counts each distinct key's records, or a joined pipeline's rows
// per join key, and ends the pipeline. A staged join counts without
// materializing rows; grouped data reads group lengths; distinct data is all
// ones; otherwise the count-only driver runs over the input plane. On a
// string pipeline only the emitted keys are copied out of the arena, and
// they share block-sized backing strings as HistogramStr's keys do;
// strings.Clone detaches one.
func (p *pipeBase[T, K]) Histogram() []KeyCount[K] {
	out, err := p.e.histogramE("Histogram")
	mustCall(err)
	return out
}

// HistogramE is Histogram with an error return for cancellable pipelines;
// see RunE for the contract.
func (p *pipeBase[T, K]) HistogramE() ([]KeyCount[K], error) { return p.e.histogramE("HistogramE") }

// TopK returns the k most frequent keys with their counts, ordered by
// descending count, and ends the pipeline. The selection runs over the
// fused histogram — O(distinct) or O(matched groups), never over
// materialized join rows; on a string pipeline only the k winners' keys are
// copied out of the arena, into shared backing strings as Histogram's are.
// Ties break by position in the histogram's emission order: deterministic
// for a fixed seed, but set by the plan, so a folded Dedup may pick other
// equal-count keys than a settled one would.
func (p *pipeBase[T, K]) TopK(k int) []KeyCount[K] {
	out, err := p.e.topKE("TopK", k)
	mustCall(err)
	return out
}

// TopKE is TopK with an error return for cancellable pipelines; see RunE
// for the contract.
func (p *pipeBase[T, K]) TopKE(k int) ([]KeyCount[K], error) { return p.e.topKE("TopKE", k) }

// CountDistinct returns the number of distinct keys, or a joined pipeline's
// join keys with at least one row, and ends the pipeline. A pending Dedup
// never runs, since it keeps every key. Distinct data is a length; grouped
// data a group count; a staged join the number of matched keys, counted
// without materializing rows; otherwise a count-only distribution runs over
// the input plane.
func (p *pipeBase[T, K]) CountDistinct() int64 {
	n, err := p.e.countDistinctE("CountDistinct")
	mustCall(err)
	return n
}

// CountDistinctE is CountDistinct with an error return for cancellable
// pipelines; see RunE for the contract.
func (p *pipeBase[T, K]) CountDistinctE() (int64, error) {
	return p.e.countDistinctE("CountDistinctE")
}

// Stats returns the per-stage statistics of a WithStats pipeline, one entry
// per stage/terminal that ran, in execution order (nil without the option):
// a settled Dedup records a "Dedup" entry where it ran, a folded one none.
// A joined pipeline's record covers the pre-join stages of its left side
// too (the record is shared across the join). Unlike stages and terminals
// it is callable on a consumed pipeline — read it after the terminal, when
// every stage has merged its counters; the WithStats target holds the
// pipeline's total.
func (p *pipeBase[T, K]) Stats() []StageStats { return p.e.stageStats() }

// join stages the equi-join of c's records with b's, keyed by b.key and
// fusing b's plane and pending dedup, and returns the joined rows' core,
// keyed by the join key read from the left record. Both cores are consumed;
// a fault of either side rides into the join, so the terminal at the end
// of the chain still reports it.
func join[R, K any](c, b *pipeCore[R, K]) *pipeCore[Joined[R], K] {
	keyA := c.key
	jc := &pipeCore[Joined[R], K]{
		cfg:    c.cfg,
		key:    func(j Joined[R]) K { return keyA(j.Left) },
		hash:   c.hash,
		eq:     c.eq,
		fault:  c.fault,
		stages: c.stages,
	}
	if jc.fault == nil {
		jc.fault = b.fault
	}
	if jc.fault == nil {
		jc.pend = &eqJoin[R, K]{
			a: c.data, b: b.data,
			inA: c.plane, inB: b.plane,
			keyA: c.key, keyB: b.key,
			hash: c.hash, eq: c.eq,
			dedupA: c.dedupPend, dedupB: b.dedupPend,
		}
		jc.owned = true
	}
	c.plane, b.plane = core.Plane[K]{}, core.Plane[K]{}
	c.fault, b.fault = nil, nil
	c.used, b.used = true, true
	return jc
}

// pipeCore is the pipeline machinery behind every pipeline: the data with
// everything upstream already knows about it (plane), or a
// not-yet-materialized staged join (pend). A Query pipeline and its joins
// run it over the caller's records, a string pipeline over its span plane
// (arenaPipe). It deliberately has no join method (see pipeEngine).
type pipeCore[R, K any] struct {
	cfg  core.Config
	data []R
	key  func(R) K
	hash func(K) uint64
	eq   func(K, K) bool

	plane     core.Plane[K]     // what upstream already knows about data
	pend      pendingJoin[R, K] // staged join; non-nil means data is not yet materialized
	dedupPend bool              // a Dedup is recorded but not run (see Pipeline.Dedup)
	owned     bool              // data is pipeline-owned (safe to reorder in place)
	used      bool
	fault     error // a stage faulted; later stages no-op and the terminal reports it

	// stages, armed by newCore when WithStats is present, accumulates one
	// StageStats per stage/terminal in execution order. A pointer to a
	// shared slice (not the slice itself) so a join's new pipeCore keeps
	// appending to the same record, and Stats() reads it after the terminal.
	stages *[]StageStats
}

// newCore starts a pipeline's core over data, arming the per-stage record
// when cfg carries WithStats.
func newCore[R, K any](cfg core.Config, data []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool) pipeCore[R, K] {
	c := pipeCore[R, K]{cfg: cfg, data: data, key: key, hash: hash, eq: eq}
	if cfg.Stats != nil {
		c.stages = new([]StageStats)
	}
	return c
}

// pendingJoin is a join whose materialization is deferred until a terminal
// decides whether rows are needed at all: counting terminals take per-key
// counts (counts, which fold the sides' pending dedups as presence),
// everything else forces the rows (materialize, which may emit the output's
// plane into out, running the sides' pending dedups first unless
// settleDedup already ran them).
type pendingJoin[R, K any] interface {
	counts(cfg core.Config) []collect.KV[K, int64]
	dedupPending() bool
	settleDedup(cfg core.Config)
	materialize(cfg core.Config, out *core.Plane[K]) []R
	release()
}

// dedup records a pending Dedup; its consumer plans it (see
// Pipeline.Dedup).
func (p *pipeCore[R, K]) dedup(op string) {
	p.check(op)
	if p.fault == nil {
		p.dedupPend = true
	}
}

// settleDedup runs the pending dedups as stages of their own, each recorded
// as a "Dedup" entry, for a consumer that needs the deduplicated records: a
// staged join's side dedups, then the pipeline's own.
func (p *pipeCore[R, K]) settleDedup() {
	if p.pend != nil && p.pend.dedupPending() {
		p.staged("Dedup", func() { p.pend.settleDedup(p.cfg) })
	}
	if p.dedupPend {
		p.dedupPend = false
		p.staged("Dedup", func() {
			p.settle()
			p.data = dedupData(p.data, &p.plane, p.key, p.hash, p.eq, p.cfg)
			p.owned = true // fresh output, or distinct data a dedup already made
		})
	}
}

// dedupData keeps each key's first record of data, consuming its plane pl
// and leaving the output's plane in its place. Distinct data is returned
// as it is; grouped data dedups with one gather and no hashing; otherwise
// rel.DedupPlane distributes the records over pl and emits the output's
// hash plane.
func dedupData[R, K any](data []R, pl *core.Plane[K], key func(R) K, hash func(K) uint64,
	eq func(K, K) bool, cfg core.Config) (out []R) {
	switch {
	case pl.Distinct:
		return data
	case pl.Grouped:
		out = rel.FirstPerGroup(parallel.Or(cfg.Runtime), data, pl.Bounds)
		pl.Release()
	default:
		var hout *parallel.Buf[uint64]
		out, hout = rel.DedupPlane(data, pl, true, key, hash, eq, cfg)
		pl.Release()
		// Distinct output makes the carried heavy keys singletons, so only
		// the hash plane rides forward.
		if hout != nil {
			pl.Hashes, pl.HBuf = hout.S, hout
		}
	}
	pl.Distinct = true
	return out
}

func (p *pipeCore[R, K]) sort(op string) {
	p.check(op)
	p.settleDedup()
	p.staged(op, func() {
		p.settle()
		if !p.plane.Grouped {
			p.sortInGuard()
		}
	})
}

func (p *pipeCore[R, K]) runE(op string) (out []R, err error) {
	p.check(op)
	if err = p.takeFault(); err != nil {
		return nil, err
	}
	p.settleDedup()
	p.staged(op, func() {
		p.settle()
		out = p.data
		p.finish()
	})
	if err = p.takeFault(); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *pipeCore[R, K]) groupsE(op string) (out []R, groups []Group, err error) {
	p.check(op)
	if err = p.takeFault(); err != nil {
		return nil, nil, err
	}
	p.settleDedup()
	p.staged(op, func() {
		p.settle()
		if !p.plane.Grouped {
			p.sortInGuard()
		}
		bounds := p.plane.Bounds
		groups = make([]Group, len(bounds)-1)
		for g := range groups {
			groups[g] = Group{Lo: int(bounds[g]), Hi: int(bounds[g+1])}
		}
		out = p.data
		p.finish()
	})
	if err = p.takeFault(); err != nil {
		return nil, nil, err
	}
	return out, groups, nil
}

// sortInGuard is the sort body shared by the Sort stage and the Groups
// terminal's implicit sort; the caller holds the call guard and has settled
// any staged join.
func (p *pipeCore[R, K]) sortInGuard() {
	if !p.owned {
		p.data = append([]R(nil), p.data...)
		p.owned = true
	}
	if p.plane.Hashes != nil {
		// The role-swapping recursion scribbles on the plane; it is consumed.
		core.SortEqHashed(p.data, p.plane.Hashes, p.key, p.hash, p.eq, p.cfg)
	} else {
		core.SortEq(p.data, p.key, p.hash, p.eq, p.cfg)
	}
	distinct := p.plane.Distinct
	p.plane.Release()
	p.plane.Distinct = distinct
	p.setBounds()
}

func (p *pipeCore[R, K]) histogramE(op string) (out []KeyCount[K], err error) {
	p.check(op)
	if err = p.takeFault(); err != nil {
		return nil, err
	}
	if p.dedupPend {
		// Counting the deduplicated records needs them (each counts one);
		// without it a staged join's side dedups fold into its counts.
		p.settleDedup()
	}
	p.staged(op, func() {
		out = p.histogram()
		p.finish()
	})
	if err = p.takeFault(); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *pipeCore[R, K]) topKE(op string, k int) (out []KeyCount[K], err error) {
	p.check(op)
	if err = p.takeFault(); err != nil {
		return nil, err
	}
	if p.dedupPend { // as in histogramE
		p.settleDedup()
	}
	p.staged(op, func() {
		kv := rel.SelectTopK(p.histKV(), k, p.cfg)
		p.finish()
		out = make([]KeyCount[K], len(kv))
		for i, e := range kv {
			out[i] = KeyCount[K]{Key: e.Key, Count: e.Value}
		}
	})
	if err = p.takeFault(); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *pipeCore[R, K]) countDistinctE(op string) (n int64, err error) {
	p.check(op)
	if err = p.takeFault(); err != nil {
		return 0, err
	}
	// A dedup keeps every key, so the count needs none: a pending one is
	// dropped unrun, and a staged join's side dedups fold into its counts.
	p.dedupPend = false
	p.staged(op, func() {
		switch {
		case p.pend != nil:
			n = int64(len(p.pend.counts(p.cfg)))
		case p.plane.Grouped:
			if g := len(p.plane.Bounds) - 1; g > 0 {
				n = int64(g)
			}
		case p.plane.Distinct:
			n = int64(len(p.data))
		default:
			n = rel.CountDistinctPlane(p.data, &p.plane, p.key, p.hash, p.eq, p.cfg)
		}
		p.finish()
	})
	if err = p.takeFault(); err != nil {
		return 0, err
	}
	return n, nil
}

// histKV computes the fused per-key counts feeding histogram and topK.
func (p *pipeCore[R, K]) histKV() []collect.KV[K, int64] {
	switch {
	case p.pend != nil:
		return p.pend.counts(p.cfg)
	case p.plane.Grouped:
		return rel.GroupedHistogram(p.rt(), p.data, p.plane.Bounds, p.key)
	case p.plane.Distinct:
		kv := make([]collect.KV[K, int64], len(p.data))
		key, data := p.key, p.data
		p.rt().For(len(data), 1024, func(i int) {
			kv[i] = collect.KV[K, int64]{Key: key(data[i]), Value: 1}
		})
		return kv
	default:
		return collect.HistogramPlane(p.data, &p.plane, p.key, p.hash, p.eq, p.cfg)
	}
}

// histogram is histKV in the public result type. The engine writes it once,
// in its pack pass; the grouped, distinct and staged-join counts are
// converted in one parallel pass.
func (p *pipeCore[R, K]) histogram() []KeyCount[K] {
	if p.pend == nil && !p.plane.Grouped && !p.plane.Distinct {
		return collect.HistogramAs(p.data, &p.plane, p.key, p.hash, p.eq, toKeyCount[K], p.cfg)
	}
	kv := p.histKV()
	out := make([]KeyCount[K], len(kv))
	p.rt().For(len(kv), 1024, func(i int) { out[i] = toKeyCount(kv[i]) })
	return out
}

// settle forces a staged join into materialized rows (its plane riding
// forward), for stages and terminals that need the records themselves.
func (p *pipeCore[R, K]) settle() {
	if p.pend == nil {
		return
	}
	var out core.Plane[K]
	p.data = p.pend.materialize(p.cfg, &out)
	p.pend.release()
	p.pend = nil
	p.plane = out
	p.owned = true
}

// setBounds records the group boundaries of the (grouped) data: the g+1
// fenceposts, in an arena lease released when the pipeline ends.
func (p *pipeCore[R, K]) setBounds() {
	n := len(p.data)
	rt := p.rt()
	heads := parallel.PackIndexIn(rt, n, func(i int) bool {
		return i == 0 || !p.eq(p.key(p.data[i-1]), p.key(p.data[i]))
	})
	bb := parallel.GetBuf[int32](rt.Scratch(), len(heads)+1)
	for i, h := range heads {
		bb.S[i] = int32(h)
	}
	bb.S[len(heads)] = int32(n)
	p.plane.Grouped = true
	p.plane.Bounds, p.plane.BBuf = bb.S[:len(heads)+1], bb
}

func (p *pipeCore[R, K]) rt() *parallel.Runtime { return parallel.Or(p.cfg.Runtime) }

// check guards against reuse of a consumed pipeline. A faulted pipeline is
// not "reused" — its stages no-op and its terminal delivers the fault, so
// the one error check at the end of a fluent chain suffices.
func (p *pipeCore[R, K]) check(op string) {
	if p.used && p.fault == nil {
		panic(&PipelineConsumedError{Op: op})
	}
}

// staged runs one stage or terminal body under the call guard, recording
// its CallStats as a separate entry when the pipeline carries WithStats:
// the stage's driver calls drain into a per-stage struct, which is folded
// into the caller's total and appended to the stage record. Without stats
// it is exactly guarded.
func (p *pipeCore[R, K]) staged(op string, fn func()) {
	if p.stages == nil || p.cfg.Stats == nil || p.fault != nil {
		p.guarded(fn)
		return
	}
	total := p.cfg.Stats
	st := new(CallStats)
	p.cfg.Stats = st
	// Deferred so a *PanicError unwinding through the guard still restores
	// the caller's pointer and records whatever the stage counted before it
	// died (a faulted stage's entry is partial, not absent).
	defer func() {
		p.cfg.Stats = total
		total.Add(*st)
		*p.stages = append(*p.stages, StageStats{Op: op, Stats: *st})
	}()
	p.guarded(fn)
}

// guarded runs one stage or terminal body under the call guard (admission,
// a call-scoped lease ledger, panic containment). A faulted pipeline skips
// the body — the fault rides to the terminal. A cancellation inside the
// body records the fault and discards the pipeline's half-consumed state; a
// user-callback panic discards state too and re-raises as *PanicError.
func (p *pipeCore[R, K]) guarded(fn func()) {
	if p.fault != nil {
		return
	}
	saved := p.cfg
	call, aerr := enterCall(&p.cfg)
	if aerr != nil {
		p.cfg = saved
		p.fail(aerr)
		return
	}
	var cerr error
	completed := false
	// LIFO: done runs first (settling or aborting the ledger, possibly
	// re-panicking), then this restore/fail hook — which therefore runs even
	// when a *PanicError is unwinding through.
	defer func() {
		p.cfg = saved
		if cerr != nil {
			p.fail(cerr)
		} else if !completed {
			p.fail(errPipelineFaulted)
		}
	}()
	defer call.done(&cerr)
	fn()
	completed = true
}

// fail records the pipeline's fault and discards its intermediate state.
// The plane's buffers and any staged join may be mid-mutation when a fault
// unwinds through a stage, so nothing is released back to the arena — the
// references are dropped for the GC to take.
func (p *pipeCore[R, K]) fail(err error) {
	if p.fault == nil {
		p.fault = err
	}
	p.plane = core.Plane[K]{}
	p.pend = nil
	p.dedupPend = false
	p.data = nil
	p.used = true
}

// takeFault delivers a pending fault exactly once: the pipeline comes out
// consumed, so touching it again raises the consumed panic rather than
// re-reporting a stale error.
func (p *pipeCore[R, K]) takeFault() error {
	if p.fault == nil {
		return nil
	}
	err := p.fault
	p.fault = nil
	p.used = true
	return err
}

// stageStats copies the accumulated per-stage record (nil without
// WithStats). A copy, so the caller cannot alias the pipeline's backing
// slice across a later join continuation's appends.
func (p *pipeCore[R, K]) stageStats() []StageStats {
	if p.stages == nil {
		return nil
	}
	return append([]StageStats(nil), *p.stages...)
}

// finish releases the pipeline's pooled state and marks it consumed.
func (p *pipeCore[R, K]) finish() {
	p.plane.Release()
	if p.pend != nil {
		p.pend.release()
		p.pend = nil
	}
	p.used = true
}

// eqJoin is the staged same-record-type equi-join behind JoinEq/JoinEqP.
// When both sides arrive grouped it matches groups instead of distributing.
type eqJoin[R, K any] struct {
	a, b           []R
	inA, inB       core.Plane[K]
	keyA, keyB     func(R) K
	hash           func(K) uint64
	eq             func(K, K) bool
	dedupA, dedupB bool // the side's Dedup is pending: counted by presence, run before rows
}

// counts folds the sides' pending dedups: a deduplicated side holds each of
// its keys once, so counting it by presence gives the same per-key counts
// without running the dedup. The exception is a grouped side facing an
// ungrouped one: no group merge runs, and its plane was spent by the sort,
// so the join's classify sweep would hash every record of it again, while
// its dedup is a gather that hashes nothing and leaves the join its
// distinct records.
func (p *eqJoin[R, K]) counts(cfg core.Config) []collect.KV[K, int64] {
	if p.inA.Grouped && p.inB.Grouped {
		return rel.JoinGroupedCount(p.a, p.inA.Bounds, p.b, p.inB.Bounds,
			p.keyA, p.keyB, p.hash, p.eq, p.dedupA, p.dedupB, cfg)
	}
	p.settle(cfg, p.inA.Grouped, p.inB.Grouped)
	return rel.JoinCount(p.a, &p.inA, p.b, &p.inB, p.keyA, p.keyB, p.hash, p.eq, p.dedupA, p.dedupB, cfg)
}

func (p *eqJoin[R, K]) dedupPending() bool { return p.dedupA || p.dedupB }

// settleDedup runs the sides' pending dedups: rows join first-occurrence
// records.
func (p *eqJoin[R, K]) settleDedup(cfg core.Config) { p.settle(cfg, true, true) }

// settle runs the pending dedups of the chosen sides.
func (p *eqJoin[R, K]) settle(cfg core.Config, a, b bool) {
	if a && p.dedupA {
		p.dedupA = false
		p.a = dedupData(p.a, &p.inA, p.keyA, p.hash, p.eq, cfg)
	}
	if b && p.dedupB {
		p.dedupB = false
		p.b = dedupData(p.b, &p.inB, p.keyB, p.hash, p.eq, cfg)
	}
}

func (p *eqJoin[R, K]) materialize(cfg core.Config, out *core.Plane[K]) []Joined[R] {
	p.settleDedup(cfg)
	joinF := func(l, r R) Joined[R] { return Joined[R]{Left: l, Right: r} }
	if p.inA.Grouped && p.inB.Grouped {
		return rel.JoinGrouped(p.a, p.inA.Bounds, p.b, p.inB.Bounds,
			p.keyA, p.keyB, p.hash, p.eq, joinF, cfg)
	}
	return rel.JoinPlane(p.a, &p.inA, p.b, &p.inB, p.keyA, p.keyB, p.hash, p.eq, joinF, out, cfg)
}

func (p *eqJoin[R, K]) release() {
	p.inA.Release()
	p.inB.Release()
}
