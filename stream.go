package semisort

import (
	"context"
	"sync"
	"time"

	"repro/internal/rel"
	"repro/internal/stream"
)

// Streaming ingestion: the batch-coalescing front end over the engine.
// Many producer goroutines Submit individual records; a single flusher per
// stream coalesces them into driver-sized batches (at WithBatchSize
// records, or WithMaxWait after a batch's first record), runs one engine
// call per batch through the normal admission/ledger/cancellation guard,
// and delivers a per-record result on the 1-buffered channel Submit
// returned. Cross-batch state — the dedup seen-set, the top-k count
// sketch, the join build side — is updated by epoch commit: a batch's
// state delta is applied only after its driver call returned cleanly, so
// a panic or cancellation mid-batch fails exactly that batch's records
// (typed *stream.BatchError on their result channels) and leaves the
// state bit-identical to a replay of the committed batches. DESIGN.md
// "Streaming ingestion & cross-batch state" has the full contract.

// StreamResult is the terminal outcome of one submitted record.
type StreamResult[O any] = stream.Result[O]

// BatchError is the typed error delivered to every record of a flush that
// faulted; see the internal/stream documentation for its fields.
type BatchError = stream.BatchError

// streamConfig collects the streaming knobs next to the engine options the
// per-flush driver calls run with.
type streamConfig struct {
	b            stream.Config
	ops          []Option
	ctx          context.Context
	flushTimeout time.Duration
	decay        float64
	prune        float64
}

// StreamOption adjusts a stream's batching, overload, retry, and engine
// parameters.
type StreamOption func(*streamConfig)

// WithBatchSize sets the flush size: a batch is handed to the engine when
// it reaches n records (default 1024).
func WithBatchSize(n int) StreamOption {
	return func(c *streamConfig) { c.b.BatchSize = n }
}

// WithMaxWait bounds batching latency: a partial batch is flushed d after
// its first record arrived (default 50ms; d < 0 disables the deadline —
// only size and Close flush).
func WithMaxWait(d time.Duration) StreamOption {
	return func(c *streamConfig) {
		if d <= 0 {
			d = -1
		}
		c.b.MaxWait = d
	}
}

// WithQueueDepth bounds the submit queue: n records may wait beyond the
// batch under assembly (default 4x the batch size). A full queue blocks
// producers — backpressure — unless WithShedding is set.
func WithQueueDepth(n int) StreamOption {
	return func(c *streamConfig) { c.b.QueueDepth = n }
}

// WithShedding makes a full queue shed instead of block: Submit delivers
// ErrQueueFull immediately and the record is dropped. Choose shedding for
// latency-critical producers that would rather lose a record than stall,
// blocking (the default) for producers that must not lose data.
func WithShedding() StreamOption {
	return func(c *streamConfig) { c.b.Shed = true }
}

// WithStreamRetry re-runs a failed flush up to retries extra times,
// sleeping backoff before the first retry and doubling it per attempt. By
// default only transient cancellations (context.Canceled,
// context.DeadlineExceeded — the shape a per-flush deadline produces) are
// retried; WithStreamRetryIf overrides the predicate.
func WithStreamRetry(retries int, backoff time.Duration) StreamOption {
	return func(c *streamConfig) {
		c.b.Retries = retries
		c.b.Backoff = backoff
	}
}

// WithStreamRetryIf replaces the transient-error predicate consulted
// before each retry (see WithStreamRetry).
func WithStreamRetryIf(f func(error) bool) StreamOption {
	return func(c *streamConfig) { c.b.RetryIf = f }
}

// WithFlushHook observes flushes: f runs on the flusher goroutine at the
// start of each flush's first attempt with the 1-based flush ordinal and
// the batch size. Intended for metrics and for the fault-injection
// harness; a panicking hook faults that batch exactly like a panicking
// driver call.
func WithFlushHook(f func(epoch int64, records int)) StreamOption {
	return func(c *streamConfig) { c.b.OnFlush = f }
}

// WithStreamContext bounds the whole stream's driver calls by ctx: once it
// fires, subsequent flushes fail with ctx.Err() (delivered per record,
// wrapped in *BatchError). Producers are not bound by it — use SubmitCtx
// to bound an individual enqueue wait.
func WithStreamContext(ctx context.Context) StreamOption {
	return func(c *streamConfig) { c.ctx = ctx }
}

// WithFlushTimeout bounds each flush attempt: every attempt gets a fresh
// deadline d (derived from the stream context, if any), so one pathological
// batch cannot wedge the flusher. Combined with WithStreamRetry, a flush
// that blows its deadline is retried with a fresh one.
func WithFlushTimeout(d time.Duration) StreamOption {
	return func(c *streamConfig) { c.flushTimeout = d }
}

// WithDecay makes a TopKStream's window exponential: at every epoch commit
// existing weights are scaled by decay (0 < decay < 1) before the batch's
// counts are added, and entries whose weight sinks below prune are
// dropped. The default (decay 1) keeps exact running counts forever.
// Other stream kinds ignore it.
func WithDecay(decay, prune float64) StreamOption {
	return func(c *streamConfig) { c.decay, c.prune = decay, prune }
}

// WithStreamOptions passes engine options (WithRuntime, WithSeed,
// WithLightBuckets, ...) through to every per-flush driver call.
func WithStreamOptions(opts ...Option) StreamOption {
	return func(c *streamConfig) { c.ops = append(c.ops, opts...) }
}

func buildStreamConfig(opts []StreamOption) *streamConfig {
	c := &streamConfig{decay: 1}
	for _, o := range opts {
		o(c)
	}
	return c
}

// callOpts returns the engine options for one flush attempt plus the
// cancel to defer: with a flush timeout each attempt gets a fresh deadline
// context derived from the stream context.
func (c *streamConfig) callOpts() ([]Option, context.CancelFunc) {
	if c.flushTimeout <= 0 {
		if c.ctx == nil {
			return c.ops, func() {}
		}
		return append(append([]Option(nil), c.ops...), WithContext(c.ctx)), func() {}
	}
	parent := c.ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithTimeout(parent, c.flushTimeout)
	return append(append([]Option(nil), c.ops...), WithContext(ctx)), cancel
}

// ixRec carries a record's position within its batch through a per-flush
// driver call, so batch-level results map back to submitted items. (A local
// type cannot reference a generic function's type parameters, hence the
// package-level declaration.)
type ixRec[R any] struct {
	R R
	I int32
}

// streamBase carries the surface every stream shares, over the stream's
// batcher: R is the submitted record and O its per-record outcome — a
// DedupStream's DedupKept, a TopKStream's struct{}, a JoinStream's []T.
type streamBase[R, O any] struct {
	b *stream.Batcher[R, O]
}

// Submit enqueues one record (a JoinStream's probe record); see Batcher
// semantics in the package docs: the returned channel delivers exactly one
// StreamResult — the record's outcome once its batch commits (a
// DedupStream's DedupKept, a TopKStream's zero-value acknowledgement, a
// JoinStream's join matches, possibly empty), or a typed error (*BatchError
// for a faulted flush, ErrQueueFull on a shedding stream's full queue,
// ErrStreamClosed after Close). Blocking streams apply backpressure here.
func (s *streamBase[R, O]) Submit(r R) <-chan StreamResult[O] { return s.b.Submit(r) }

// SubmitCtx is Submit with ctx bounding the wait for queue space.
func (s *streamBase[R, O]) SubmitCtx(ctx context.Context, r R) <-chan StreamResult[O] {
	return s.b.SubmitCtx(ctx, r)
}

// Close drains the queue, flushes the final partial batch, settles every
// outstanding result channel, stops the flusher goroutine, and returns
// the stream's first flush error (nil if every flush committed).
func (s *streamBase[R, O]) Close() error { return s.b.Close() }

// Flushes reports how many flushes have started; Faults how many failed
// after retries. Observability counters, monotone.
func (s *streamBase[R, O]) Flushes() int64 { return s.b.Flushes() }

// Faults reports how many flushes failed after exhausting retries.
func (s *streamBase[R, O]) Faults() int64 { return s.b.Faults() }

// Metrics snapshots the stream's batcher counters (queue depth and high
// water, per-reason flush tallies, batch size and commit latency
// histograms) lock-free; see StreamMetrics.
func (s *streamBase[R, O]) Metrics() StreamMetrics { return s.b.Metrics() }

// DedupKept is the per-record outcome of a DedupStream: whether this
// record is the first occurrence of its key across every committed batch
// (and within its own batch), and the total distinct-key count after its
// batch committed. A DedupStream therefore answers both streaming Dedup
// (filter on Kept) and streaming CountDistinct (read Distinct) from one
// persistent seen-set.
type DedupKept struct {
	Kept     bool
	Distinct int64
}

// DedupStream is incremental Dedup/CountDistinct over a stream of records:
// each batch is deduplicated by one driver call (hash once per record, the
// duplicate mass of heavy keys absorbed where it stands), its surviving
// first occurrences are probed against the persistent seen-set, and the
// new keys are committed only after the driver call returned cleanly.
type DedupStream[R, K any] struct {
	streamBase[R, DedupKept]
	mu   sync.RWMutex
	seen *stream.SeenSet[K]
}

// NewDedupStream creates a streaming dedup/count-distinct over key/hash/eq
// (the same callback contract as Dedup). Close it when done.
func NewDedupStream[R, K any](key func(R) K, hash func(K) uint64, eq func(K, K) bool,
	opts ...StreamOption) *DedupStream[R, K] {
	sc := buildStreamConfig(opts)
	ds := &DedupStream[R, K]{seen: stream.NewSeenSet[K]()}
	wkey := func(x ixRec[R]) K { return key(x.R) }
	// Flusher-owned scratch, reused across flushes: a stream has exactly
	// one flusher, outs is read only by the delivery that ends the flush,
	// and the staged delta (dh, dk) is consumed by the same attempt's
	// commit.
	var (
		wrapped []ixRec[R]
		outs    []DedupKept
		hs, dh  []uint64
		dk      []K
	)
	commit := func() {
		ds.mu.Lock()
		ds.seen.Insert(dh, dk)
		ds.mu.Unlock()
	}
	proc := func(batch []R) ([]DedupKept, func(), error) {
		callOpts, cancel := sc.callOpts()
		defer cancel()
		wrapped = wrapped[:0]
		for i, r := range batch {
			wrapped = append(wrapped, ixRec[R]{R: r, I: int32(i)})
		}
		var surv []ixRec[R]
		var err error
		surv, hs, err = dedupHashed(wrapped, wkey, hash, eq, hs, callOpts)
		clear(wrapped) // do not pin the batch's records until the next flush
		if err != nil {
			return nil, nil, err
		}
		// Probe phase: read-only against the seen-set, under the read
		// lock (deferred unlock — key and eq are user callbacks and may
		// panic; the lock must not outlive the fault). Each survivor's
		// hash comes from the driver call, which hashed every record once.
		outs = append(outs[:0], make([]DedupKept, len(batch))...)
		dh, dk = dh[:0], dk[:0]
		var total int64
		func() {
			ds.mu.RLock()
			defer ds.mu.RUnlock()
			for j, s := range surv {
				k := key(s.R)
				if !ds.seen.Contains(hs[j], k, eq) {
					outs[s.I].Kept = true
					dh = append(dh, hs[j])
					dk = append(dk, k)
				}
			}
			total = ds.seen.Len() + int64(len(dk))
		}()
		for i := range outs {
			outs[i].Distinct = total
		}
		return outs, commit, nil
	}
	ds.b = stream.New(sc.b, proc)
	return ds
}

// dedupHashed is DedupE that also returns each survivor's user hash, taken
// from the driver's output plane into hs (reused), so a caller probing
// state with the survivors never calls hash again. The plane is released
// before the call guard settles.
func dedupHashed[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool,
	hs []uint64, opts []Option) (out []R, _ []uint64, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, hs, aerr
	}
	defer call.done(&err)
	out, hout := rel.DedupPlane(a, nil, true, key, hash, eq, cfg)
	hs = hs[:0]
	if hout != nil {
		hs = append(hs, hout.S...)
		hout.Release()
	}
	return out, hs, nil
}

// Distinct returns the number of distinct keys across all committed
// batches.
func (s *DedupStream[R, K]) Distinct() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seen.Len()
}

// KeyWeight is one entry of a streaming top-k: a key and its current —
// possibly decayed — weight. With no decay the weight is the key's exact
// occurrence count over the committed batches.
type KeyWeight[K any] struct {
	Key    K
	Weight float64
}

// TopKStream is incremental TopK over a stream of records: each batch runs
// one count-only histogram driver call, and the resulting per-key counts
// are merged into a persistent (optionally decayed, see WithDecay) count
// sketch by epoch commit. Submitted records are acknowledged per item;
// TopK answers queries at any time from committed state only.
type TopKStream[R, K any] struct {
	streamBase[R, struct{}]
	mu  sync.RWMutex
	sk  *stream.CountSketch[K]
	key func(R) K
}

// NewTopKStream creates a streaming frequency tracker over key/hash/eq
// (the same callback contract as TopK). Close it when done.
func NewTopKStream[R, K any](key func(R) K, hash func(K) uint64, eq func(K, K) bool,
	opts ...StreamOption) *TopKStream[R, K] {
	sc := buildStreamConfig(opts)
	ts := &TopKStream[R, K]{sk: stream.NewCountSketch[K](sc.decay, sc.prune), key: key}
	// The staged delta is flusher-owned scratch, reused across flushes:
	// CountSketch.Commit copies what it keeps.
	var (
		slots []int
		hs    []uint64
		ks    []K
		adds  []float64
	)
	commit := func() {
		ts.mu.Lock()
		ts.sk.Commit(slots, hs, ks, adds)
		ts.mu.Unlock()
	}
	proc := func(batch []R) ([]struct{}, func(), error) {
		callOpts, cancel := sc.callOpts()
		defer cancel()
		hist, err := HistogramE(batch, key, hash, eq, callOpts...)
		if err != nil {
			return nil, nil, err
		}
		// Resolve phase: find each batch key's existing slot (or -1)
		// read-only, so the commit below runs no user callback.
		slots, hs, ks, adds = slots[:0], hs[:0], ks[:0], adds[:0]
		func() {
			ts.mu.RLock()
			defer ts.mu.RUnlock()
			for _, kc := range hist {
				h := hash(kc.Key)
				hs = append(hs, h)
				ks = append(ks, kc.Key)
				adds = append(adds, float64(kc.Count))
				slots = append(slots, ts.sk.Resolve(h, kc.Key, eq))
			}
		}()
		return make([]struct{}, len(batch)), commit, nil
	}
	ts.b = stream.New(sc.b, proc)
	return ts
}

// TopK returns the k heaviest keys over the committed batches, weight
// descending (ties by first appearance). In-flight batches are not
// included — queries only ever observe committed epochs.
func (s *TopKStream[R, K]) TopK(k int) []KeyWeight[K] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	top := s.sk.Top(k)
	out := make([]KeyWeight[K], len(top))
	for i, e := range top {
		out[i] = KeyWeight[K]{Key: e.Key, Weight: e.Weight}
	}
	return out
}

// Tracked reports how many distinct keys the sketch currently retains.
func (s *TopKStream[R, K]) Tracked() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sk.Len()
}

// JoinStream is incremental JoinEq against a retained build side: build
// records accumulate in a persistent hash index (committed by epoch, via
// AddBuild), and every submitted probe record is joined against the build
// side as committed at its flush. Where one-shot JoinEq re-partitions both
// relations every call, the stream pays for each build record once.
type JoinStream[R, S, K, T any] struct {
	streamBase[R, []T]
	mu   sync.RWMutex
	bt   *stream.BuildTable[S]
	keyB func(S) K
	hash func(K) uint64
}

// NewJoinStream creates a streaming equi-join: probe records of type R
// stream through Submit and join against the retained build side of type
// S (fed by AddBuild) with join(r, s) emitted per matching pair. The
// callback contract matches JoinEq. Close it when done.
func NewJoinStream[R, S, K, T any](keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, join func(R, S) T,
	opts ...StreamOption) *JoinStream[R, S, K, T] {
	sc := buildStreamConfig(opts)
	js := &JoinStream[R, S, K, T]{bt: stream.NewBuildTable[S](), keyB: keyB, hash: hash}
	// The outer slice is flusher-owned scratch, reused across flushes; each
	// record's matches are a fresh slice, delivered to the user.
	var outs [][]T
	proc := func(batch []R) ([][]T, func(), error) {
		// Probe-only: no cross-batch state is written, so there is no
		// commit. The read lock serializes against AddBuild commits;
		// deferred unlock survives user-callback panics.
		outs = append(outs[:0], make([][]T, len(batch))...)
		func() {
			js.mu.RLock()
			defer js.mu.RUnlock()
			for i, r := range batch {
				k := keyA(r)
				h := hash(k)
				js.bt.Probe(h,
					func(s S) bool { return eq(keyB(s), k) },
					func(s S) { outs[i] = append(outs[i], join(r, s)) })
			}
		}()
		return outs, nil, nil
	}
	js.b = stream.New(sc.b, proc)
	return js
}

// AddBuild commits a batch of build-side records. The staging phase runs
// the user key and hash callbacks and may fault — in which case nothing
// was retained and the error (a *PanicError for a callback panic) is
// returned — while the commit consumes only stored hashes. Build batches
// added after a probe record's flush do not join with it.
func (s *JoinStream[R, S, K, T]) AddBuild(recs []S) (err error) {
	if s.b.Closed() {
		return ErrStreamClosed
	}
	hs := make([]uint64, len(recs))
	if err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = asStreamFault(r)
			}
		}()
		for i, r := range recs {
			hs[i] = s.hash(s.keyB(r))
		}
		return nil
	}(); err != nil {
		return err
	}
	s.mu.Lock()
	s.bt.Append(recs, hs)
	s.mu.Unlock()
	return nil
}

// BuildLen reports how many build records have been committed.
func (s *JoinStream[R, S, K, T]) BuildLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bt.Len()
}
