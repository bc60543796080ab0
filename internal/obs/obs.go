// Package obs is the engine's zero-dependency observability plane: per-call
// counter sinks (CallStats / Sink), fixed-bucket log2 histograms (LogHist /
// AtomicLogHist), an expvar + HTTP snapshot registry (Registry), and gated
// pprof goroutine labels. It follows the Ledger threading
// pattern — an optional pointer rides in core.Config, every hot-path touch
// is branch-on-nil when disabled, and the enabled path is alloc-free in
// steady state (the Sink is pooled through the runtime arena by its caller;
// counters are padded atomic shards merged once at call end).
//
// The package imports only the standard library, and nothing under
// internal/ — parallel, core, dist, stream all sit above it, so any engine
// layer can count into it without an import cycle.
package obs

import (
	"sync/atomic"
	"unsafe"
)

// Counter indices of one call's Sink shards. CallStats carries the same
// quantities as named fields; counters() maps index -> field so the merge,
// Add and the bench table never drift from the enum.
const (
	// Level-plan counters (one batch of updates per PlanLevel).
	CtrLevels         = iota // distribution levels planned
	CtrSerialLevels          // levels whose whole subtree ran on the caller
	CtrParallelLevels        // levels that distributed over >1 subarray
	CtrCollapsed             // levels that fired the skew collapse
	CtrHeavyKeys             // heavy keys promoted, summed over levels
	CtrAdoptedLevels         // levels whose heavy table was adopted from a pipeline plane

	// Sweep counters (derived from the level's prefix array, flushed once
	// per level / once per classify chunk — never per record).
	CtrClassified // records classified (once per record per level)
	CtrScattered  // records moved by distribution sweeps
	CtrAbsorbed   // records consumed in place by absorb sinks
	CtrBytesMoved // record + carried-hash bytes written by sweeps

	// User-closure call counters (the hash-once / probe-once / eq-gated
	// contract quantities; EqCalls agrees with the WithEqCounter test hook
	// by construction).
	CtrHashCalls
	CtrProbeCalls
	CtrEqCalls

	// Leaf base cases.
	CtrLeaves      // base-case buckets solved sequentially
	CtrLeafRecords // records solved in leaves

	// Phase wall time, cumulative across recursion nodes (parallel nodes
	// overlap, so sums can exceed the call's wall time; see DESIGN.md).
	CtrPlanNS
	CtrDistributeNS
	CtrLeafNS

	NumCounters
)

// CallStats is one call's merged statistics, filled by Sink.Drain when the
// call's driver is released. Zero it (or use a fresh value) between calls —
// the drain adds, so one CallStats can also accumulate a batch of calls.
// All fields are plain int64: a CallStats is a snapshot, not a live sink.
type CallStats struct {
	Levels         int64 // distribution levels planned
	SerialLevels   int64 // levels solved entirely on the calling goroutine
	ParallelLevels int64 // levels distributed over >1 counting subarray
	Collapsed      int64 // levels that fired the skew collapse
	HeavyKeys      int64 // heavy keys promoted, summed over levels
	AdoptedLevels  int64 // levels whose heavy table came from a pipeline plane

	Classified int64 // records classified (once per record per level)
	Scattered  int64 // records moved by distribution sweeps
	Absorbed   int64 // records consumed in place by absorb sinks
	BytesMoved int64 // record + carried-hash-plane bytes written by sweeps

	HashCalls  int64 // user hash invocations (the hash-once contract: <= 1 per record)
	ProbeCalls int64 // heavy-table probes (<= 1 per record per level)
	EqCalls    int64 // digest-gated full key comparisons

	Leaves      int64 // sequential base-case buckets
	LeafRecords int64 // records solved in leaves

	PlanNS       int64 // sampling + level-shape time, summed across nodes
	DistributeNS int64 // classify + scatter time, summed across nodes
	LeafNS       int64 // base-case time, summed across nodes
}

// counters maps the Ctr* enum onto the struct's fields, in index order.
func (s *CallStats) counters() [NumCounters]*int64 {
	return [NumCounters]*int64{
		&s.Levels, &s.SerialLevels, &s.ParallelLevels, &s.Collapsed, &s.HeavyKeys, &s.AdoptedLevels,
		&s.Classified, &s.Scattered, &s.Absorbed, &s.BytesMoved,
		&s.HashCalls, &s.ProbeCalls, &s.EqCalls,
		&s.Leaves, &s.LeafRecords,
		&s.PlanNS, &s.DistributeNS, &s.LeafNS,
	}
}

// Add accumulates o into s field by field (used by pipelines to fold
// per-stage stats into the caller's total).
func (s *CallStats) Add(o CallStats) {
	dst, src := s.counters(), o.counters()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// shard is one cache-line-padded bank of counters. NumCounters int64s plus
// padding round the struct to a multiple of 128 bytes (two lines on common
// hardware prefetch pairs), so two shards never false-share.
type shard struct {
	c [NumCounters]atomic.Int64
	_ [(-NumCounters * 8) & 127]byte
}

// Sink is the per-call counter plane: a small power-of-two set of padded
// shards updated with atomic adds. Writers pick a shard from their own
// stack address (goroutines have distinct stacks, so concurrent workers
// spread across shards); every update is an atomic add, so any shard choice
// is correct — shards only shed contention. A Sink is pooled by its caller
// (the driver leases one per call via the runtime arena) and comes back
// from Drain with every counter zeroed, ready for reuse.
type Sink struct {
	shards []shard
	mask   int
}

// Grow sizes the sink for about n concurrent writers (clamped to [1, 16]
// shards, rounded up to a power of two). Pooled sinks keep their shard
// slice, so steady-state calls never reallocate it.
func (k *Sink) Grow(n int) {
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	ns := 1
	for ns < n {
		ns <<= 1
	}
	if len(k.shards) < ns {
		k.shards = make([]shard, ns)
	}
	k.mask = ns - 1
}

// stackHint derives a shard hint from the caller's stack: distinct
// goroutines run on distinct stacks, so concurrent writers decorrelate
// without any goroutine-id plumbing. The >>10 drops the within-frame bits
// that are identical for every call at the same depth.
func stackHint() int {
	var x byte
	return int(uintptr(unsafe.Pointer(&x)) >> 10)
}

// AddLocal adds v to one counter on the caller's stack-hinted shard.
func (k *Sink) AddLocal(ctr int, v int64) {
	k.shards[stackHint()&k.mask].c[ctr].Add(v)
}

// Classify flushes one classify chunk's locally accumulated counts: recs
// records classified, fresh user-hash computations, probes heavy-table
// probes. One call per chunk, a handful of atomic adds — the classify loop
// itself only bumps plain locals.
func (k *Sink) Classify(recs, fresh, probes int64) {
	sh := &k.shards[stackHint()&k.mask]
	sh.c[CtrClassified].Add(recs)
	if fresh > 0 {
		sh.c[CtrHashCalls].Add(fresh)
	}
	if probes > 0 {
		sh.c[CtrProbeCalls].Add(probes)
	}
}

// Level records one planned level's shape: the serial/parallel decision,
// the collapse firing, promoted heavy keys, the sampling round's fresh hash
// computations (the fused build memoizes them into the plane; classify's
// skip list keeps them from double counting), and the plan's wall time.
func (k *Sink) Level(serial, collapsed, adopted bool, nh, sampledHashes int, planNS int64) {
	sh := &k.shards[stackHint()&k.mask]
	sh.c[CtrLevels].Add(1)
	if serial {
		sh.c[CtrSerialLevels].Add(1)
	} else {
		sh.c[CtrParallelLevels].Add(1)
	}
	if collapsed {
		sh.c[CtrCollapsed].Add(1)
	}
	if adopted {
		sh.c[CtrAdoptedLevels].Add(1)
	}
	if nh > 0 {
		sh.c[CtrHeavyKeys].Add(int64(nh))
	}
	if sampledHashes > 0 {
		sh.c[CtrHashCalls].Add(int64(sampledHashes))
	}
	sh.c[CtrPlanNS].Add(planNS)
}

// Sweep records one distribution level's movement, derived from the level's
// prefix array after the scatter (never counted per record): scattered
// records moved, absorbed records consumed in place, bytes the sweep wrote
// (records plus the carried hash-plane words), and the sweep's wall time.
func (k *Sink) Sweep(scattered, absorbed, bytes, ns int64) {
	sh := &k.shards[stackHint()&k.mask]
	sh.c[CtrScattered].Add(scattered)
	if absorbed > 0 {
		sh.c[CtrAbsorbed].Add(absorbed)
	}
	sh.c[CtrBytesMoved].Add(bytes)
	sh.c[CtrDistributeNS].Add(ns)
}

// Leaf records one sequentially solved base-case bucket.
func (k *Sink) Leaf(records int, ns int64) {
	sh := &k.shards[stackHint()&k.mask]
	sh.c[CtrLeaves].Add(1)
	sh.c[CtrLeafRecords].Add(int64(records))
	sh.c[CtrLeafNS].Add(ns)
}

// CountEq counts one digest-gated full key comparison (the driver wraps the
// user eq closure once at init, the same funnel WithEqCounter uses).
func (k *Sink) CountEq() { k.AddLocal(CtrEqCalls, 1) }

// Drain merges every shard into s and zeroes the sink, so a pooled Sink is
// clean for its next call. Safe to call with writers gone (call end is a
// barrier: the driver drains only after its last level completed).
func (k *Sink) Drain(s *CallStats) {
	dst := s.counters()
	for i := range k.shards {
		sh := &k.shards[i]
		for c := 0; c < NumCounters; c++ {
			if v := sh.c[c].Swap(0); v != 0 {
				*dst[c] += v
			}
		}
	}
}
