package semisort

import (
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/strkey"
)

// QueryStr begins a fused pipeline over string-keyed records: the string
// analogue of Query, with the same stage/terminal surface and the same
// hash-once-per-pipeline fusion contract. The records' keys are materialized
// exactly once — at QueryStr — into the pooled length-prefixed arena
// (strkeys.go), and every stage then runs the generic pipeline over an
// index/span plane: 12 bytes moved per record per level regardless of key
// length, spans in every heavy table, arena-contiguous byte compares behind
// the digest gate, and the chain's fused hash plane riding between stages so
// key bytes are digested at most once per input record for the whole query.
// Terminals gather indices back to caller records (Run, Groups) or
// materialize only the emitted distinct keys (Histogram, TopK).
//
// Pipelines are single-use and fault-contained exactly like Query; the
// arena and span planes release to the runtime's pools at the terminal.
func QueryStr[R any](a []R, key func(R) string, opts ...Option) *PipelineStr[R] {
	return QueryKeyed(a, AppendKey[R](appendStr(key)), opts...)
}

// QueryKeyed is QueryStr for append-materialized ([]byte or composite) keys.
func QueryKeyed[R any](a []R, appendKey AppendKey[R], opts ...Option) *PipelineStr[R] {
	cfg := buildConfig(opts)
	st := &strState[R]{a: a}
	inner := cfg // the un-entered config the per-stage guards re-enter
	berr := func() (err error) {
		call, aerr := enterCall(&cfg)
		if aerr != nil {
			return aerr
		}
		defer call.done(&err)
		strkey.Build(&st.plane, 0, a, strkey.AppendKey[R](appendKey), strkey.Bytes, cfg)
		return nil
	}()
	pc := pipeCore[strkey.Rec, uint64]{cfg: inner, hash: st.plane.SegHash(strkey.Bytes), eq: st.plane.Eq()}
	if berr != nil {
		// The build faulted (cancellation fails here, a callback panic
		// unwinds to the caller like any stage): the fault rides the chain
		// and the terminal reports it, matching a faulted Query stage.
		pc.fail(berr)
	} else {
		pc.data = st.plane.Recs(0)
		pc.key = strkey.RecKey
		// Build's digests seed the chain's fused hash plane: the first
		// hashing stage consumes them and no stage ever digests key bytes
		// again (the plane only borrows the array — strState releases it).
		pc.plane = st.plane.In(0)
		pc.owned = true // the Rec plane is pipeline-built; stages reorder it in place
	}
	return &PipelineStr[R]{p: &Pipeline[strkey.Rec, uint64]{c: pc}, st: st}
}

// PipelineStr is an in-flight fused string-keyed query; see QueryStr. The
// zero value is not usable.
type PipelineStr[R any] struct {
	p  *Pipeline[strkey.Rec, uint64]
	st *strState[R]
}

// strState is the arena-plane state a string pipeline carries outside the
// generic machinery: the key plane (whose Rec arrays are the pipeline's
// data) and the caller's records for the terminal gathers.
type strState[R any] struct {
	plane strkey.Plane
	a, b  []R
}

// release returns the string plane's pooled state; all buffers hold only
// pointer-free payloads or zero themselves first, so releasing after a
// faulted stage is safe (and ledger-aborted leases suppress their own
// release anyway).
func (s *strState[R]) release() {
	s.plane.Release()
}

// gather maps result Recs back to the records they index.
func gatherRecords[R any](rt *parallel.Runtime, a []R, recs []strkey.Rec) []R {
	out := make([]R, len(recs))
	rt.For(len(recs), 1<<13, func(i int) { out[i] = a[recs[i].Idx] })
	return out
}

// spanCounts materializes span-keyed counts as string-keyed counts through
// the key materializer (strkey.Emit), so the keys share block-sized backing
// strings as HistogramStr's do. The pipeline's call guard has closed by the
// time a terminal gets here, so the config carries no context and the copy
// never raises a cancellation.
func spanCounts(rt *parallel.Runtime, p *strkey.Plane, kv []KeyCount[uint64]) []KeyCount[string] {
	return strkey.Emit(p.Seg, kv, spanCount, keyCount, core.Config{Runtime: rt})
}

// spanCount reads a span-keyed pipeline count.
func spanCount(e KeyCount[uint64]) (uint64, int64) { return e.Key, e.Count }

// Dedup keeps one record per distinct key (the key's first record in input
// order). It is deferred to its consumer as in Pipeline.Dedup: a join's
// counting terminal counts this side by key presence over the Build digests
// and never runs it.
func (p *PipelineStr[R]) Dedup() *PipelineStr[R] { p.p.Dedup(); return p }

// Sort groups equal-key records contiguously (semisort=) and carries the
// group boundaries forward; see Pipeline.Sort.
func (p *PipelineStr[R]) Sort() *PipelineStr[R] { p.p.Sort(); return p }

// GroupBy is Sort under its relational name.
func (p *PipelineStr[R]) GroupBy() *PipelineStr[R] { p.p.GroupBy(); return p }

// JoinEq stages the inner equi-join of the pipeline with relation b on
// bytes-equal string keys; see Pipeline.JoinEq for the deferral contract (a
// counting terminal never materializes a joined row). b's keys build into
// the second arena slot of the pipeline's key plane, so cross-relation
// equality is a contiguous byte compare behind the digest gate. As with
// Pipeline.JoinEq, both sides must share the record type R.
func (p *PipelineStr[R]) JoinEq(b []R, keyB func(R) string) *JoinedPipelineStr[R] {
	return p.JoinEqKeyed(b, AppendKey[R](appendStr(keyB)))
}

// JoinEqKeyed is JoinEq for append-materialized keys.
func (p *PipelineStr[R]) JoinEqKeyed(b []R, appendKeyB AppendKey[R]) *JoinedPipelineStr[R] {
	st := p.st
	st.b = b
	if p.p.c.fault == nil && !p.p.c.used {
		// Build b's plane under its own guard, like any other stage body; a
		// fault here consumes the pipeline and rides to the terminal.
		cfg := p.p.c.cfg
		berr := func() (err error) {
			call, aerr := enterCall(&cfg)
			if aerr != nil {
				return aerr
			}
			defer call.done(&err)
			strkey.Build(&st.plane, 1, b, strkey.AppendKey[R](appendKeyB), strkey.Bytes, cfg)
			return nil
		}()
		if berr != nil {
			p.p.c.fail(berr)
		}
	}
	jp := p.p.JoinEq(st.plane.Recs(1), strkey.RecKey)
	if ej, ok := jp.c.pend.(*eqJoin[strkey.Rec, uint64]); ok {
		// Seed the right side's fused hash plane too: neither join side
		// re-digests what Build already digested.
		ej.inB = st.plane.In(1)
	}
	return &JoinedPipelineStr[R]{p: jp, st: st}
}

// Run materializes the pipeline's records and ends it.
func (p *PipelineStr[R]) Run() []R {
	out, err := p.RunE()
	mustCall(err)
	return out
}

// RunE is Run with an error return for cancellable pipelines; see
// Pipeline.RunE for the contract.
func (p *PipelineStr[R]) RunE() ([]R, error) {
	idx, err := p.p.RunE()
	if err != nil {
		p.st.release()
		return nil, err
	}
	out := gatherRecords(p.p.c.rt(), p.st.a, idx)
	p.st.release()
	return out, nil
}

// Groups materializes the records grouped by key with their boundaries and
// ends the pipeline; see Pipeline.Groups.
func (p *PipelineStr[R]) Groups() ([]R, []Group) {
	out, groups, err := p.GroupsE()
	mustCall(err)
	return out, groups
}

// GroupsE is Groups with an error return for cancellable pipelines.
func (p *PipelineStr[R]) GroupsE() ([]R, []Group, error) {
	idx, groups, err := p.p.GroupsE()
	if err != nil {
		p.st.release()
		return nil, nil, err
	}
	out := gatherRecords(p.p.c.rt(), p.st.a, idx)
	p.st.release()
	return out, groups, nil
}

// Histogram counts each distinct key's records and ends the pipeline. Only
// the emitted keys are copied out of the arena, and they share block-sized
// backing strings as HistogramStr's keys do; strings.Clone detaches one.
func (p *PipelineStr[R]) Histogram() []KeyCount[string] {
	out, err := p.HistogramE()
	mustCall(err)
	return out
}

// HistogramE is Histogram with an error return for cancellable pipelines.
func (p *PipelineStr[R]) HistogramE() ([]KeyCount[string], error) {
	kv, err := p.p.HistogramE()
	if err != nil {
		p.st.release()
		return nil, err
	}
	out := spanCounts(p.p.c.rt(), &p.st.plane, kv)
	p.st.release()
	return out, nil
}

// TopK returns the k most frequent keys with their counts and ends the
// pipeline. Only the k winners' keys are copied out of the arena, into
// shared backing strings as HistogramStr's keys are.
func (p *PipelineStr[R]) TopK(k int) []KeyCount[string] {
	out, err := p.TopKE(k)
	mustCall(err)
	return out
}

// TopKE is TopK with an error return for cancellable pipelines.
func (p *PipelineStr[R]) TopKE(k int) ([]KeyCount[string], error) {
	kv, err := p.p.TopKE(k)
	if err != nil {
		p.st.release()
		return nil, err
	}
	out := spanCounts(p.p.c.rt(), &p.st.plane, kv)
	p.st.release()
	return out, nil
}

// CountDistinct returns the number of distinct keys and ends the pipeline.
func (p *PipelineStr[R]) CountDistinct() int64 {
	n, err := p.CountDistinctE()
	mustCall(err)
	return n
}

// CountDistinctE is CountDistinct with an error return for cancellable
// pipelines.
func (p *PipelineStr[R]) CountDistinctE() (int64, error) {
	n, err := p.p.CountDistinctE()
	p.st.release()
	return n, err
}

// JoinedPipelineStr is a string-keyed pipeline over the rows of a staged
// equi-join (see PipelineStr.JoinEq): every stage and terminal except a
// further join.
type JoinedPipelineStr[R any] struct {
	p  *JoinedPipeline[strkey.Rec, uint64]
	st *strState[R]
}

// Dedup keeps one joined row per distinct join key.
func (p *JoinedPipelineStr[R]) Dedup() *JoinedPipelineStr[R] { p.p.Dedup(); return p }

// Sort groups equal-key joined rows contiguously.
func (p *JoinedPipelineStr[R]) Sort() *JoinedPipelineStr[R] { p.p.Sort(); return p }

// GroupBy is Sort under its relational name.
func (p *JoinedPipelineStr[R]) GroupBy() *JoinedPipelineStr[R] { p.p.GroupBy(); return p }

// gatherJoined maps index pairs back to the records they join.
func (p *JoinedPipelineStr[R]) gatherJoined(rows []Joined[strkey.Rec]) []Joined[R] {
	out := make([]Joined[R], len(rows))
	a, b := p.st.a, p.st.b
	p.p.c.rt().For(len(rows), 1<<13, func(i int) {
		out[i] = Joined[R]{Left: a[rows[i].Left.Idx], Right: b[rows[i].Right.Idx]}
	})
	return out
}

// Run materializes the joined rows and ends the pipeline.
func (p *JoinedPipelineStr[R]) Run() []Joined[R] {
	out, err := p.RunE()
	mustCall(err)
	return out
}

// RunE is Run with an error return for cancellable pipelines.
func (p *JoinedPipelineStr[R]) RunE() ([]Joined[R], error) {
	rows, err := p.p.RunE()
	if err != nil {
		p.st.release()
		return nil, err
	}
	out := p.gatherJoined(rows)
	p.st.release()
	return out, nil
}

// Groups materializes the joined rows grouped by join key and ends the
// pipeline.
func (p *JoinedPipelineStr[R]) Groups() ([]Joined[R], []Group) {
	out, groups, err := p.GroupsE()
	mustCall(err)
	return out, groups
}

// GroupsE is Groups with an error return for cancellable pipelines.
func (p *JoinedPipelineStr[R]) GroupsE() ([]Joined[R], []Group, error) {
	rows, groups, err := p.p.GroupsE()
	if err != nil {
		p.st.release()
		return nil, nil, err
	}
	out := p.gatherJoined(rows)
	p.st.release()
	return out, groups, nil
}

// Histogram counts each join key's rows WITHOUT materializing them; see
// Pipeline.Histogram. The keys share block-sized backing strings as
// HistogramStr's keys do; strings.Clone detaches one.
func (p *JoinedPipelineStr[R]) Histogram() []KeyCount[string] {
	out, err := p.HistogramE()
	mustCall(err)
	return out
}

// HistogramE is Histogram with an error return for cancellable pipelines.
func (p *JoinedPipelineStr[R]) HistogramE() ([]KeyCount[string], error) {
	kv, err := p.p.HistogramE()
	if err != nil {
		p.st.release()
		return nil, err
	}
	out := spanCounts(p.p.c.rt(), &p.st.plane, kv)
	p.st.release()
	return out, nil
}

// TopK returns the k join keys with the most rows, counted without
// materializing them. The keys share backing strings as HistogramStr's do.
func (p *JoinedPipelineStr[R]) TopK(k int) []KeyCount[string] {
	out, err := p.TopKE(k)
	mustCall(err)
	return out
}

// TopKE is TopK with an error return for cancellable pipelines.
func (p *JoinedPipelineStr[R]) TopKE(k int) ([]KeyCount[string], error) {
	kv, err := p.p.TopKE(k)
	if err != nil {
		p.st.release()
		return nil, err
	}
	out := spanCounts(p.p.c.rt(), &p.st.plane, kv)
	p.st.release()
	return out, nil
}

// CountDistinct returns the number of join keys with at least one row,
// counted without materializing rows.
func (p *JoinedPipelineStr[R]) CountDistinct() int64 {
	n, err := p.CountDistinctE()
	mustCall(err)
	return n
}

// CountDistinctE is CountDistinct with an error return for cancellable
// pipelines.
func (p *JoinedPipelineStr[R]) CountDistinctE() (int64, error) {
	n, err := p.p.CountDistinctE()
	p.st.release()
	return n, err
}
