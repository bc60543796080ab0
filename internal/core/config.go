// Package core implements the paper's semisort algorithms (Algorithm 1):
// semisort= (equality test only) and semisort< (a less-than test is also
// available), with the Sampling and Bucketing, Blocked Distributing, and
// recursive Local Refining steps, the in-place A/T swap optimization of
// Section 3.4, and the hash-table / stable-sort base cases of Section 3.3.
// Both variants are stable, race-free, and deterministic given a seed.
package core

import (
	"context"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sampling"
)

// Config holds the tunable parameters of Section 3.6. The zero value
// selects the paper's defaults (n_L = 2^10, alpha = 2^14, at most 5000
// subarrays per level, |S| = 500 log2 n samples).
type Config struct {
	// Runtime is the worker pool and buffer arena the call executes on.
	// nil selects the shared process-wide runtime (parallel.Default()). A
	// service handling many calls should create one Runtime and pass it in
	// every Config so all calls share workers and recycled buffers.
	Runtime *parallel.Runtime
	// LightBuckets is n_L, the number of light buckets. It is rounded up to
	// a power of two so light bucket ids are hash-bit windows.
	LightBuckets int
	// BaseCase is alpha: buckets of at most this many records are solved
	// sequentially (hash table for semisort=, stable sort for semisort<).
	BaseCase int
	// MaxSubarrays bounds the number of subarrays per recursion level; the
	// subarray length is l = max(n/MaxSubarrays, MinSubarray) so the
	// counting matrix C and prefix array X stay cache-resident.
	MaxSubarrays int
	// MinSubarray is the smallest subarray length (keeps C small when the
	// input itself is small).
	MinSubarray int
	// SampleFactor is c in |S| = c * log2(n'); the heavy threshold is
	// log2(n')/2 sample occurrences (see sorter.sampleParams), so n_H <= 2c.
	SampleFactor int
	// MaxDepth is a recursion guard: beyond this depth the algorithm falls
	// back to the base case on the whole bucket, making the algorithm total
	// even for adversarial user hash functions (e.g., constant hashes).
	MaxDepth int
	// Seed drives sampling. Fixing it fixes the output exactly (the
	// algorithm is internally deterministic; see Section 2.2).
	Seed uint64
	// DisableHeavy turns off heavy-key detection (no sampling, every key
	// treated as light). Used by the ablation benchmarks to quantify the
	// paper's heavy-key optimization (Section 4.2); leave false otherwise.
	DisableHeavy bool
	// DisableInPlace turns off the A/T swap optimization of Section 3.4:
	// after every distribution the temporary array is copied back (Alg. 1
	// line 23). Used by the ablation benchmarks; leave false otherwise.
	DisableInPlace bool

	// Ctx, when non-nil, cancels the call cooperatively: the driver checks
	// it at every level boundary and at every classify chunk, the join's
	// broadcast loops check it between cross-product rows, and the call
	// unwinds with a cancellation the public error-returning entry points
	// translate back into ctx.Err(). Semisort levels are O(n) sweeps, so
	// cancellation latency is one chunk of one sweep, not one call.
	Ctx context.Context

	// Stats, when non-nil, receives the call's observability counters
	// (levels planned, records classified/scattered/absorbed, bytes moved,
	// hash/probe/eq call counts, leaf counts, per-phase wall time — see
	// obs.CallStats). The driver leases a padded counter-shard sink from the
	// runtime arena, hot paths flush chunk-local tallies into it with a few
	// atomic adds per chunk (never per record), and the shards merge into
	// Stats exactly once when the call's driver is released. Disabled cost
	// is one nil check per flush point; enabled steady-state cost is
	// alloc-free. The public option is semisort.WithStats.
	Stats *obs.CallStats

	// Ledger, when non-nil, is the call-scoped lease ledger fault recovery
	// aborts: buffers leased through it are discarded (never re-pooled)
	// once the call panics or cancels. The public entry points install one
	// per call; driving core directly without one simply loses the
	// leak-to-GC backstop, not correctness.
	Ledger *parallel.Ledger

	// eqCounter, when non-nil, counts every full key comparison the call
	// issues: the driver wraps the user eq closure once at init, so every
	// digest-gated fallthrough — heavy-table resolve, sampling build, the
	// leaf groupers and chained-hash join probes — is counted through one
	// hook. The contract tests pin "full comparisons <= 1 per record per
	// level on collision-free inputs" with it, the eq-side twin of the
	// probe-once contract. The hot path pays nothing for it when nil.
	eqCounter *atomic.Int64
}

// WithEqCounter returns a copy of c whose full key comparisons are counted
// into ec. Every eq call that survives the 64-bit digest gate — and only
// those; hash-equality pre-checks are free — increments the counter, so the
// contract tests can pin "full comparisons <= 1 per record per level on
// collision-free inputs". The hot path pays nothing for it when unset.
func (c Config) WithEqCounter(ec *atomic.Int64) Config {
	c.eqCounter = ec
	return c
}

// EqCounter returns the armed eq-counter, nil when none. Terminal ops that
// issue digest-gated comparisons outside the driver's wrapped closure (the
// arena key plane's bucketed grouper compares segments inline) count through
// it so the eq-count contract stays observable on every path.
func (c Config) EqCounter() *atomic.Int64 { return c.eqCounter }

// CheckCancel is a cancellation checkpoint: when the config carries a
// context that has fired, it aborts the lease ledger (so every tracked
// release during the unwind discards instead of re-pooling) and raises the
// engine's cancellation panic, which the public error-returning entry
// points translate back into ctx.Err(). A nil context costs one branch.
func (c *Config) CheckCancel() { CheckCancel(c.Ctx, c.Ledger) }

// CheckCancel is the free-function checkpoint: hot closures capture ctx and
// ledger by value instead of taking a Config's address (which would heap-box
// the whole struct at every call).
func CheckCancel(ctx context.Context, lg *parallel.Ledger) {
	if ctx == nil {
		return
	}
	if err := ctx.Err(); err != nil {
		if lg != nil {
			lg.Abort()
		}
		panic(&parallel.Canceled{Err: err})
	}
}

// WithDefaults fills unset fields with the paper's parameters. LightBuckets
// comes out a power of two (so light bucket ids are exact hash-bit windows;
// newSorter relies on this without re-checking) and at most 2^15, leaving
// room for every detectable heavy bucket under the distribution layer's
// 2^16 bucket-id ceiling.
func (c Config) WithDefaults() Config {
	if c.LightBuckets <= 0 {
		c.LightBuckets = 1 << 10
	}
	c.LightBuckets = sampling.CeilPow2(c.LightBuckets)
	if c.LightBuckets > 1<<15 {
		c.LightBuckets = 1 << 15
	}
	if c.BaseCase <= 0 {
		c.BaseCase = 1 << 14
	}
	if c.MaxSubarrays <= 0 {
		c.MaxSubarrays = 5000
	}
	if c.MinSubarray <= 0 {
		// The paper's l = n/5000 targets 96 threads at n = 10^9; at
		// smaller n a floor keeps per-subarray tasks large enough to
		// amortize goroutine scheduling.
		c.MinSubarray = 1 << 14
	}
	if c.SampleFactor <= 0 {
		c.SampleFactor = 500
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 24
	}
	return c
}
