package semisort

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stream"
)

// Observability surface of the engine. Three planes, all alloc-free in
// steady state and branch-on-nil when disabled:
//
//   - Per-call stats: WithStats(&s) fills a CallStats with one call's
//     counters (levels, classify/scatter/absorb volumes, hash/probe/eq call
//     counts, leaf counts, per-phase wall time). On a pipeline the same option
//     additionally records per-stage stats, read back via Stats().
//   - Runtime and stream gauges: Runtime.Metrics() and the Metrics() method
//     on every stream snapshot scheduler and batcher counters lock-free.
//   - Export: Publish registers the runtime under expvar and returns a
//     Registry that serves everything as one JSON page (mount it at
//     /debug/semisort); StatsHandle adds more sources to the same page.
//
// DESIGN.md "Observability" documents the counter semantics and the
// snapshot consistency rules.

// CallStats is one engine call's merged statistics; see WithStats. The
// drain adds into the struct, so a zeroed CallStats reads one call and a
// reused one accumulates a batch.
type CallStats = obs.CallStats

// StageStats is one pipeline stage's contribution to a WithStats pipeline:
// Op names the stage or terminal ("Dedup", "JoinEq", "Run", ...) in
// execution order, Stats its counters. The pipeline's Stats() accessor
// returns them after the terminal; the caller's total CallStats is their
// sum.
type StageStats struct {
	Op    string
	Stats CallStats
}

// RuntimeMetrics is a lock-free snapshot of a Runtime's lifetime counters:
// jobs and chunk stealing, contained panics and cancellations, admission
// gate decisions and the inflight gauge. Read it with Runtime.Metrics().
type RuntimeMetrics = parallel.RuntimeMetrics

// StreamMetrics is a lock-free snapshot of one stream's batcher: submit and
// shed counts, queue depth and high water, per-reason flush tallies, batch
// size and commit latency histograms. Read it with the stream's Metrics().
type StreamMetrics = stream.Metrics

// FlushReason says what triggered a stream flush: the batch size, the
// MaxWait deadline, or Close's drain. Every *BatchError carries one.
type FlushReason = stream.FlushReason

// Flush reasons (re-exported errors.Is/switch targets).
const (
	FlushBySize     = stream.FlushBySize
	FlushByDeadline = stream.FlushByDeadline
	FlushByDrain    = stream.FlushByDrain
)

// LogHist is the fixed-bucket log2 histogram used by the stream metrics
// (bucket i covers [2^(i-1), 2^i)).
type LogHist = obs.LogHist

// Registry is the debug export surface: named snapshot sources rendered as
// one JSON document (it implements http.Handler) and published as expvars.
// See Publish.
type Registry = obs.Registry

// WithStats fills s with the call's observability counters: distribution
// levels planned (serial vs parallel, collapses, heavy keys), records
// classified / scattered / absorbed and bytes moved per sweep, user
// hash/probe/eq call counts (the hash-once and probe-once contract
// quantities), the leaf base-case mix, and per-phase wall time. The counters
// are kept in padded per-worker shards and merged into s once when the call
// ends, so the enabled path stays alloc-free; without the option the engine
// pays one nil check per flush point. On Query pipelines the option also
// arms per-stage recording — read it back with Stats() after the terminal.
func WithStats(s *CallStats) Option {
	return func(c *core.Config) { c.Stats = s }
}

// Publish registers rt's metrics for export: the returned Registry serves
// {"runtime": {...}} as JSON (mount it, e.g. mux.Handle("/debug/semisort",
// reg)) and each source is published as an expvar under "semisort." (safe
// to call more than once; already-published names are kept). Add more
// sources — stream metrics, a CallStats accumulator — with Add:
//
//	reg := semisort.Publish(rt)
//	reg.Add("ingest", func() any { return ds.Metrics() })
//	mux.Handle("/debug/semisort", reg)
func Publish(rt *Runtime) *Registry {
	reg := obs.NewRegistry()
	reg.Add("runtime", func() any { return rt.Metrics() })
	reg.PublishExpvar("semisort")
	return reg
}
