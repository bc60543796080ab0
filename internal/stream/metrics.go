package stream

import (
	"sync/atomic"

	"repro/internal/obs"
)

// FlushReason records why a batch left the assembly buffer. It rides on
// every *BatchError (so a fault report says which trigger built the doomed
// batch) and is tallied per reason in the batcher's metrics.
type FlushReason uint8

const (
	// FlushBySize: the batch reached Config.BatchSize.
	FlushBySize FlushReason = iota
	// FlushByDeadline: Config.MaxWait elapsed after the batch's first record.
	FlushByDeadline
	// FlushByDrain: Close drained the final partial batch.
	FlushByDrain
)

func (r FlushReason) String() string {
	switch r {
	case FlushBySize:
		return "size"
	case FlushByDeadline:
		return "deadline"
	case FlushByDrain:
		return "drain"
	}
	return "unknown"
}

// bMetrics is the batcher's internal counter bank: plain atomics bumped at
// submit/flush boundaries (never per record inside a flush) plus two
// fixed-bucket histograms. Snapshot lock-free by Metrics.
type bMetrics struct {
	submitted      atomic.Int64      // records accepted into the queue
	taken          atomic.Int64      // records the flusher took out of the queue
	shed           atomic.Int64      // records refused with ErrQueueFull
	queueHighWater atomic.Int64      // max queue depth at any enqueue (stored under the batcher's mu)
	retries        atomic.Int64      // extra process attempts across all flushes
	flushSize      atomic.Int64      // flushes triggered by BatchSize
	flushDeadline  atomic.Int64      // flushes triggered by MaxWait
	flushDrain     atomic.Int64      // flushes triggered by Close's drain
	flushRecords   obs.AtomicLogHist // batch sizes, log2 buckets
	commitNS       obs.AtomicLogHist // successful flush latency (process+commit), ns
}

// Metrics is one lock-free snapshot of a Batcher's counters. Each field is
// read atomically; the set is not globally consistent (fields may straddle
// a concurrent flush), which is fine for monitoring — every individual
// counter is exact.
type Metrics struct {
	// Submitted counts records accepted into the queue; Shed counts records
	// a shedding stream refused with ErrQueueFull (never enqueued).
	Submitted int64
	Shed      int64
	// QueueDepth is the number of records waiting for a flush, the batch
	// under assembly included; QueueHighWater the most there have been at
	// any enqueue. Both are bounded by QueueDepth+BatchSize-1 of the
	// Config: the queue bound plus a batch one record short of a flush.
	QueueDepth     int64
	QueueHighWater int64
	// Flushes / Faults mirror the Flushes() and Faults() accessors; Retries
	// counts extra process attempts summed over all flushes.
	Flushes int64
	Faults  int64
	Retries int64
	// Per-reason flush tallies (their sum is Flushes).
	FlushBySize     int64
	FlushByDeadline int64
	FlushByDrain    int64
	// FlushRecords buckets batch sizes; CommitNS buckets the latency of
	// successful flushes (first attempt start through commit return), both
	// in log2 buckets.
	FlushRecords obs.LogHist
	CommitNS     obs.LogHist
}

// Metrics snapshots the batcher's counters. Lock-free and allocation-light;
// safe to call from a monitoring goroutine while producers and the flusher
// run at full rate.
func (b *Batcher[R, O]) Metrics() Metrics {
	// taken is read first: it never exceeds submitted, so the difference
	// is never negative.
	taken := b.m.taken.Load()
	submitted := b.m.submitted.Load()
	return Metrics{
		Submitted:       submitted,
		Shed:            b.m.shed.Load(),
		QueueDepth:      submitted - taken,
		QueueHighWater:  b.m.queueHighWater.Load(),
		Flushes:         b.flushes.Load(),
		Faults:          b.faults.Load(),
		Retries:         b.m.retries.Load(),
		FlushBySize:     b.m.flushSize.Load(),
		FlushByDeadline: b.m.flushDeadline.Load(),
		FlushByDrain:    b.m.flushDrain.Load(),
		FlushRecords:    b.m.flushRecords.Snapshot(),
		CommitNS:        b.m.commitNS.Snapshot(),
	}
}
