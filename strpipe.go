package semisort

import (
	"repro/internal/core"
	"repro/internal/strkey"
)

// QueryStr begins a fused pipeline over string-keyed records: Query for
// string keys, with the same stages, terminals and hash-once-per-pipeline
// fusion contract, and no hash or eq to supply. The records' keys are
// materialized exactly once — at QueryStr — into the pooled length-prefixed
// arena (strkeys.go), and every stage then runs the pipeline machinery over
// an index/span plane: 16 bytes moved per record per level regardless of key
// length, spans in every heavy table, arena-contiguous byte compares behind
// the digest gate, and the chain's fused hash plane riding between stages so
// key bytes are digested at most once per input record for the whole query.
// Terminals gather indices back to caller records (Run, Groups) or
// materialize only the emitted distinct keys (Histogram, TopK).
//
// Pipelines are single-use, fault-contained and stats-armed exactly like
// Query's; the arena and span planes release to the runtime's pools at the
// terminal. See Pipeline.JoinEqP for pairing one with another pipeline.
func QueryStr[R any](a []R, key func(R) string, opts ...Option) *Pipeline[R, string] {
	return QueryKeyed(a, AppendKey[R](appendStr(key)), opts...)
}

// QueryKeyed is QueryStr for append-materialized ([]byte or composite) keys.
func QueryKeyed[R any](a []R, appendKey AppendKey[R], opts ...Option) *Pipeline[R, string] {
	keys := new(strkey.Plane)
	s := &arenaPipe[R, strkey.Rec]{
		pipeCore:  newCore(buildConfig(opts), nil, strkey.RecKey, keys.SegHash(strkey.Bytes), keys.Eq()),
		keys:      keys,
		at:        func(r strkey.Rec) R { return a[r.Idx] },
		appendKey: strkey.AppendKey[R](appendKey),
	}
	// The build runs under the call guard as a stage body does, with no
	// stage entry: a cancellation faults the pipeline and its terminal
	// reports it, and a callback panic unwinds to the caller.
	s.guarded(func() {
		strkey.Build(keys, 0, a, s.appendKey, strkey.Bytes, s.cfg)
		// Build's digests seed the chain's fused hash plane: the first
		// hashing stage consumes them and no stage ever digests key bytes
		// again (the plane only borrows the array; keys releases it). The
		// Rec plane is pipeline-built, so stages reorder it in place.
		s.data, s.plane, s.owned = keys.Recs(0), keys.In(0), true
	})
	return &Pipeline[R, string]{pipeBase[R, string]{s}}
}

// arenaPipe is a string pipeline's engine: pipeCore run over the arena's
// span plane, X being the span row (strkey.Rec, or Joined[strkey.Rec] after
// a join) and T the caller's row it stands for (R, or Joined[R]). The core's
// stages run as they are; its terminals are shadowed here to gather each
// result back to T, copy emitted keys out of the arena, and release the
// plane.
type arenaPipe[T, X any] struct {
	pipeCore[X, uint64]
	keys *strkey.Plane
	at   func(X) T // the caller's row a span row stands for
	// appendKey materializes the keys of an unjoined pipeline's records, for
	// a JoinEqP that joins them on another pipeline's plane.
	appendKey strkey.AppendKey[T]
}

// strJoin stages the join of string pipeline s with relation b keyed by
// appendKeyB: b's keys build into the second slot of s's arena plane under
// the stage's guard, and their digests seed the join's right plane, so
// neither side re-digests what Build already digested.
func strJoin[R any](s *arenaPipe[R, strkey.Rec], op string, b []R,
	appendKeyB strkey.AppendKey[R]) *arenaPipe[Joined[R], Joined[strkey.Rec]] {
	s.check(op)
	s.staged(op, func() { strkey.Build(s.keys, 1, b, appendKeyB, strkey.Bytes, s.cfg) })
	right := pipeCore[strkey.Rec, uint64]{data: s.keys.Recs(1), key: strkey.RecKey, plane: s.keys.In(1)}
	at := s.at
	return &arenaPipe[Joined[R], Joined[strkey.Rec]]{
		pipeCore: *join(&s.pipeCore, &right),
		keys:     s.keys,
		at:       func(j Joined[strkey.Rec]) Joined[R] { return Joined[R]{Left: at(j.Left), Right: b[j.Right.Idx]} },
	}
}

func (p *arenaPipe[T, X]) runE(op string) ([]T, error) {
	rows, err := p.pipeCore.runE(op)
	return p.gather(rows, err), err
}

func (p *arenaPipe[T, X]) groupsE(op string) ([]T, []Group, error) {
	rows, groups, err := p.pipeCore.groupsE(op)
	return p.gather(rows, err), groups, err
}

func (p *arenaPipe[T, X]) histogramE(op string) ([]KeyCount[string], error) {
	kv, err := p.pipeCore.histogramE(op)
	return p.emit(kv, err), err
}

func (p *arenaPipe[T, X]) topKE(op string, k int) ([]KeyCount[string], error) {
	kv, err := p.pipeCore.topKE(op, k)
	return p.emit(kv, err), err
}

func (p *arenaPipe[T, X]) countDistinctE(op string) (int64, error) {
	n, err := p.pipeCore.countDistinctE(op)
	p.keys.Release()
	return n, err
}

// gather maps a terminal's span rows back to the caller's rows (nil after a
// fault) and releases the plane. Every plane buffer holds only pointer-free
// payloads or zeroes itself first, so releasing after a faulted stage is
// safe (and ledger-aborted leases suppress their own release anyway).
func (p *arenaPipe[T, X]) gather(rows []X, err error) []T {
	var out []T
	if err == nil {
		out = make([]T, len(rows))
		at := p.at
		p.rt().For(len(rows), 1<<13, func(i int) { out[i] = at(rows[i]) })
	}
	p.keys.Release()
	return out
}

// emit materializes span-keyed counts as string-keyed counts (nil after a
// fault) through the key materializer, strkey.Emit, so the keys share
// block-sized backing strings as HistogramStr's do, and releases the plane.
// The terminal's call guard has closed by now, so the config carries no
// context and the copy never raises a cancellation.
func (p *arenaPipe[T, X]) emit(kv []KeyCount[uint64], err error) []KeyCount[string] {
	var out []KeyCount[string]
	if err == nil {
		out = strkey.Emit(p.keys.Seg, kv, spanCount, keyCount, core.Config{Runtime: p.cfg.Runtime})
	}
	p.keys.Release()
	return out
}

// spanCount reads a span-keyed pipeline count.
func spanCount(e KeyCount[uint64]) (uint64, int64) { return e.Key, e.Count }
