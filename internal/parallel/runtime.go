package parallel

import (
	"context"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Runtime is a persistent parallel scheduler: a fixed set of long-lived
// worker goroutines that execute chunk ranges of parallel loops. Unlike the
// fork-join primitives of the original reproduction (fresh goroutines per
// call), a Runtime amortizes goroutine creation across millions of calls and
// carries a Scratch buffer arena, so repeated kernel invocations are
// allocation-free in steady state.
//
// Scheduling model: every parallel loop becomes a job — a range [lo, hi)
// cut into grain-sized chunks plus an atomic claim counter. The calling
// goroutine always participates (it claims chunks like any worker), and the
// job is announced to idle pool workers, which steal chunks until none are
// left. Chunk boundaries depend only on (n, grain), never on scheduling, so
// any algorithm that is deterministic over chunk ranges stays deterministic
// at any parallelism level.
//
// Nesting is safe: a worker executing a chunk may start a nested parallel
// loop; it then participates in the nested job itself, so progress never
// depends on other workers being idle (no deadlock; worst case a nested job
// runs sequentially on its caller).
type Runtime struct {
	pool  int // number of pool worker goroutines (parallelism is pool+1)
	queue chan *job
	// closed flags a Close in progress or done; announcing counts in-flight
	// announce calls so Close can wait them out before draining the queue
	// (otherwise a racing announce could strand its job in the buffer
	// forever, pinning the job's closure and captured slices).
	closed     atomic.Bool
	announcing atomic.Int64
	scratch    Scratch
	// admit, when non-nil, is the bounded in-flight-call semaphore installed
	// by SetInflightLimit: public engine entry points Acquire a slot before
	// doing any work and release it on every exit path, so a multi-tenant
	// service gets backpressure instead of unbounded pile-up. Swapping the
	// limit replaces the channel atomically; every admitted call holds an
	// AdmitSlot bound to the exact channel it acquired on, so releases after
	// a swap drain the OLD channel — waiters queued on it make progress, and
	// no release can consume a slot another call took from the new channel.
	admit atomic.Pointer[chan struct{}]
	// m is the runtime's lifetime metrics bank (see metrics.go): jobs,
	// chunk ownership, contained faults, admission decisions. Updated only
	// at coarse boundaries, snapshot lock-free by Metrics.
	m rtMetrics
}

// job is one parallel loop in flight.
type job struct {
	next    atomic.Int64 // next chunk to claim
	drained atomic.Int64 // chunks claimed by drain, never run
	slots   atomic.Int64 // dense participant-slot allocator (ForRangeW)
	chunks  int64
	hi      int
	grain   int
	body    func(lo, hi int)
	bodyW   func(w, lo, hi int)
	wg      sync.WaitGroup // one count per chunk
	// abort flips when any chunk panics: participants check it at every
	// steal boundary and drain the remaining chunks without running them,
	// so siblings of a dead chunk stop within one chunk's worth of work.
	abort atomic.Bool
	// pan holds the job's first recorded panic (wrapped with the panicking
	// goroutine's stack); run re-raises it on the calling goroutine once
	// every chunk is accounted for.
	pan atomic.Pointer[PanicError]
}

// NewRuntime creates a runtime with the given target parallelism (the
// calling goroutine plus workers-1 pool goroutines). workers <= 0 selects
// GOMAXPROCS. The pool goroutines live for the life of the process; create
// one shared Runtime per service, not one per request.
func NewRuntime(workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rt := &Runtime{
		pool:  workers - 1,
		queue: make(chan *job, max(workers-1, 1)),
	}
	for i := 0; i < rt.pool; i++ {
		go rt.worker()
	}
	return rt
}

// Close shuts the runtime's pool workers down. It is the teardown half of
// NewRuntime for callers whose runtimes do NOT live for the life of the
// process — a service creating per-tenant pools must Close a tenant's
// runtime when the tenant goes away, or its pool goroutines (parked but
// alive) leak. Workers exit as soon as they finish the chunk they are
// running; Close waits only for racing announcements (microseconds), never
// for in-flight work. Calling Close twice is a no-op, and a closed runtime remains
// usable: later calls simply run all their chunks on the calling goroutine
// (full parallelism is gone, correctness is not), so a call racing a Close
// degrades instead of crashing. The shutdown is a nil-job sentinel per
// worker rather than a channel close, so a concurrent announce can never
// hit a closed channel. Close also hands the arena's idle byte-class blocks
// back to the GC. The shared Default runtime is process-wide by design and
// must not be closed.
func (rt *Runtime) Close() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	// Wait out announces that passed their closed check before the CAS
	// (they finish in microseconds), so after this point no job can enter
	// the queue — then drop stale announcements. Announcements are pure
	// wake-up hints (the calling goroutine always claims every unclaimed
	// chunk itself), so dropping one affects nothing but the memory the
	// stranded *job would otherwise pin in the buffer.
	for rt.announcing.Load() != 0 {
		runtime.Gosched()
	}
	for {
		select {
		case <-rt.queue:
			continue
		default:
		}
		break
	}
	for i := 0; i < rt.pool; i++ {
		rt.queue <- nil
	}
	rt.scratch.sweep(math.MaxInt64)
}

var (
	defaultOnce sync.Once
	defaultRT   *Runtime
)

// Default returns the process-wide shared runtime, creating it on first use
// with one worker per CPU (and a small floor, so machines with few CPUs
// still exercise real chunk stealing and a later SetWorkers increase finds
// pool workers to run on — idle workers cost nothing but a parked
// goroutine). The package-level For/ForRange/Do/... helpers all run on this
// runtime.
func Default() *Runtime {
	defaultOnce.Do(func() {
		defaultRT = NewRuntime(max(runtime.GOMAXPROCS(0), runtime.NumCPU(), 4))
	})
	return defaultRT
}

// resolve substitutes the shared default for a nil runtime, so a zero
// core.Config keeps working.
func resolve(rt *Runtime) *Runtime {
	if rt == nil {
		return Default()
	}
	return rt
}

// Or returns rt unchanged, or the shared Default runtime when rt is nil.
// Kernels use it to resolve an optional configured runtime.
func Or(rt *Runtime) *Runtime { return resolve(rt) }

// Scratch returns the runtime's buffer arena. Buffers taken from it are
// recycled across calls by every kernel sharing this runtime.
func (rt *Runtime) Scratch() *Scratch { return &rt.scratch }

// MaxSlots returns an upper bound on the participant-slot ids handed to
// ForRangeW bodies: slots are dense in [0, MaxSlots()).
func (rt *Runtime) MaxSlots() int { return rt.pool + 1 }

// worker is the long-lived pool goroutine loop: receive a job announcement,
// steal chunks until the job is drained, repeat. Announcements may be stale
// (the job already finished); help then claims nothing and returns. A nil
// job is Close's shutdown sentinel.
func (rt *Runtime) worker() {
	// Label the goroutine once for its lifetime, so CPU profiles attribute
	// stolen-chunk work to the pool rather than an anonymous goroutine.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("semisort", "pool-worker")))
	for j := range rt.queue {
		if j == nil {
			return
		}
		j.help()
	}
}

// help claims and runs chunks until none are left, returning how many this
// participant ran (drained chunks of an aborting job are not "run"). The
// first claimed chunk lazily assigns this participant a dense slot id for
// bodyW. Once the job is aborting (a sibling chunk panicked) the
// participant stops running bodies and drains instead.
func (j *job) help() int64 {
	slot, ran := int64(-1), int64(0)
	for {
		if j.abort.Load() {
			j.drain()
			return ran
		}
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return ran
		}
		lo := int(c) * j.grain
		hi := min(lo+j.grain, j.hi)
		if j.bodyW != nil && slot < 0 {
			slot = j.slots.Add(1) - 1
		}
		j.runChunk(int(slot), lo, hi)
		ran++
	}
}

// runChunk runs one claimed chunk with its panic contained: the first
// panic value of the job is recorded (with this goroutine's stack) and the
// job flips to aborting. The chunk is counted done either way, so run's
// barrier never hangs, and a recovering pool worker goes back to its queue
// alive.
func (j *job) runChunk(slot, lo, hi int) {
	defer j.wg.Done()
	defer j.catch()
	if j.bodyW != nil {
		j.bodyW(slot, lo, hi)
	} else {
		j.body(lo, hi)
	}
}

// catch records a chunk panic into the job. Deferred directly by runChunk
// (recover only works in a directly deferred function).
func (j *job) catch() {
	if r := recover(); r != nil {
		j.pan.CompareAndSwap(nil, AsPanicError(r))
		j.abort.Store(true)
	}
}

// drain claims the remaining chunks of an aborting job without running
// them, keeping the chunk accounting exact.
func (j *job) drain() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		j.drained.Add(1)
		j.wg.Done()
	}
}

// announce wakes up to want idle pool workers for j. Sends are non-blocking:
// if the queue is full, every worker is already busy and the caller (which
// always participates) will run the unclaimed chunks itself. After Close no
// workers are listening (and the channel send would panic), so the caller
// keeps every chunk.
func (rt *Runtime) announce(j *job, want int) {
	rt.announcing.Add(1)
	defer rt.announcing.Add(-1)
	if rt.closed.Load() {
		return
	}
	for i := 0; i < want; i++ {
		select {
		case rt.queue <- j:
		default:
			return
		}
	}
}

// chunkCount returns how many grain-sized chunks cover [0, n).
func chunkCount(n, grain int) int64 {
	return int64((n + grain - 1) / grain)
}

// run executes one job to completion: announce, participate, wait for
// straggler chunks claimed by pool workers. If any chunk panicked, the
// job's first recorded panic is re-raised here — on the calling goroutine,
// after every sibling has drained — wrapped as a *PanicError.
func (rt *Runtime) run(j *job) {
	rt.m.jobs.Add(1)
	j.wg.Add(int(j.chunks))
	rt.announce(j, min(int(j.chunks)-1, rt.pool))
	owned := j.help()
	j.wg.Wait()
	// Every chunk is now run or drained, and the pool workers ran the ones
	// neither the caller ran nor a participant drained. Both counts are
	// added here, after the barrier, so they are complete before run
	// returns: a worker's last chunk's Done can release Wait before that
	// worker could add its own count.
	if owned > 0 {
		rt.m.chunksOwner.Add(owned)
	}
	if stolen := j.chunks - owned - j.drained.Load(); stolen > 0 {
		rt.m.chunksStole.Add(stolen)
	}
	if pe := j.pan.Load(); pe != nil {
		panic(pe)
	}
}

// ForRange splits [0, n) into chunks of at most grain indices and runs
// body(lo, hi) on the chunks in parallel. A non-positive grain selects
// DefaultGrain. Chunk boundaries are a pure function of (n, grain).
func (rt *Runtime) ForRange(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	chunks := chunkCount(n, grain)
	if chunks == 1 {
		body(0, n)
		return
	}
	if rt.pool == 0 {
		// No pool workers: run the chunks sequentially, preserving the
		// chunk-size contract (no chunk exceeds grain).
		for lo := 0; lo < n; lo += grain {
			body(lo, min(lo+grain, n))
		}
		return
	}
	j := &job{chunks: chunks, hi: n, grain: grain, body: body}
	rt.run(j)
}

// For runs body(i) for every i in [0, n) in parallel. Consecutive indices
// within a grain-sized chunk run sequentially on one participant.
func (rt *Runtime) For(n, grain int, body func(i int)) {
	rt.ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRangeW is ForRange with a participant slot id: body(w, lo, hi) may use
// w to index per-worker scratch (counters, buffers) without atomics or false
// sharing. Slots are dense in [0, MaxSlots()) and exclusive to one
// participant for the duration of the call, but WHICH chunks a slot receives
// depends on scheduling — per-slot results must be merged order-insensitively
// (e.g. commutative sums) to preserve determinism.
func (rt *Runtime) ForRangeW(n, grain int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	chunks := chunkCount(n, grain)
	if chunks == 1 {
		body(0, 0, n)
		return
	}
	if rt.pool == 0 {
		for lo := 0; lo < n; lo += grain {
			body(0, lo, min(lo+grain, n))
		}
		return
	}
	j := &job{chunks: chunks, hi: n, grain: grain, bodyW: body}
	rt.run(j)
}

// SetInflightLimit bounds how many engine calls the runtime admits
// concurrently: public op entry points and pipeline stages Acquire an
// admission slot before doing any work and Release it when they return, so
// at most n calls compute at once and the rest queue at the door (with
// context-aware waiting) instead of piling onto the worker pool. n <= 0
// removes the limit. Changing the limit does not disturb calls already
// admitted; they drain under the limit they were admitted with.
func (rt *Runtime) SetInflightLimit(n int) {
	if n <= 0 {
		rt.admit.Store(nil)
		return
	}
	ch := make(chan struct{}, n)
	rt.admit.Store(&ch)
}

// AdmitSlot is one admission slot held by an in-flight call. It is bound
// to the exact semaphore channel Acquire took it from, so Release stays
// correct across concurrent SetInflightLimit swaps: a call admitted under
// the old limit drains the old channel (unblocking waiters queued on it)
// instead of consuming a slot some other call took from the new one. The
// zero AdmitSlot (no limit installed at Acquire time) releases nothing.
// The slot also carries the admitting runtime so Release can retire the
// call from the inflight gauge; the zero slot skips that too.
type AdmitSlot struct {
	ch chan struct{}
	rt *Runtime
}

// Release returns the slot to the semaphore it came from and retires the
// call from the inflight gauge. Call it exactly once per successful
// Acquire; on the zero slot it is a no-op.
func (s AdmitSlot) Release() {
	if s.ch != nil {
		<-s.ch
	}
	if s.rt != nil {
		s.rt.m.inflight.Add(-1)
	}
}

// Acquire takes one admission slot, waiting until a slot frees or ctx
// fires (ctx may be nil: wait indefinitely). It returns the zero AdmitSlot
// immediately when no in-flight limit is installed. Each successful
// Acquire must be paired with exactly one Release on the returned slot;
// the public entry points do this — user code only touches the pair when
// driving the runtime directly.
func (rt *Runtime) Acquire(ctx context.Context) (AdmitSlot, error) {
	p := rt.admit.Load()
	if p == nil {
		rt.m.admitted.Add(1)
		rt.m.inflight.Add(1)
		return AdmitSlot{rt: rt}, nil
	}
	ch := *p
	if ctx == nil {
		// A failed non-blocking try means this call actually queued; the
		// try costs nothing when the gate has room, so the common path
		// stays one channel send.
		select {
		case ch <- struct{}{}:
		default:
			rt.m.waits.Add(1)
			ch <- struct{}{}
		}
		rt.m.admitted.Add(1)
		rt.m.inflight.Add(1)
		return AdmitSlot{ch: ch, rt: rt}, nil
	}
	if err := ctx.Err(); err != nil {
		rt.m.sheds.Add(1)
		return AdmitSlot{}, err
	}
	select {
	case ch <- struct{}{}:
	default:
		rt.m.waits.Add(1)
		select {
		case ch <- struct{}{}:
		case <-ctx.Done():
			rt.m.sheds.Add(1)
			return AdmitSlot{}, ctx.Err()
		}
	}
	rt.m.admitted.Add(1)
	rt.m.inflight.Add(1)
	return AdmitSlot{ch: ch, rt: rt}, nil
}

// Blocks splits [0, n) into nBlocks nearly equal contiguous blocks and runs
// body(b, lo, hi) for each block b in parallel.
func (rt *Runtime) Blocks(n, nBlocks int, body func(b, lo, hi int)) {
	if n <= 0 || nBlocks <= 0 {
		return
	}
	if nBlocks > n {
		nBlocks = n
	}
	rt.For(nBlocks, 1, func(b int) {
		lo, hi := BlockRange(n, nBlocks, b)
		body(b, lo, hi)
	})
}
