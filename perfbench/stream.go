package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	semisort "repro"
	"repro/internal/stream"
)

// The stream phase is an open loop: one producer goroutine submits records
// on a fixed schedule whatever the stream does, and the calling goroutine
// collects each record's result in order. Latency runs from the record's
// scheduled send time, so a stall also delays every record due during it.

const (
	fixedRate    = 0.5e6 // records/s of the fixed-rate latency phase
	latencyLimit = 50 * time.Millisecond
	rungWarm     = 100 * time.Millisecond
	rungLen      = 500 * time.Millisecond
	fixedWarm    = 250 * time.Millisecond
	// p99 is the median of the p99s of windows this long, so one stall of
	// the shared host moves one window, not the whole figure.
	p99Window  = 250 * time.Millisecond
	rungWindow = 125 * time.Millisecond
)

// ladderRate is rung k of the offered-rate ladder: 0.25 Mrec/s * 2^(k/8),
// so k = 8 is the fixed rate and k = ladderTop is 8 Mrec/s.
func ladderRate(k int) float64 { return 0.25e6 * math.Pow(2, float64(k)/8) }

const (
	ladderFixed = 8
	ladderTop   = 40
)

type submitter struct {
	submit   func(i int) <-chan semisort.StreamResult[semisort.DedupKept]
	distinct func() int64
	close    func() error
	metrics  func() semisort.StreamMetrics
}

// streamSource is a workload's stream: a pool of records submitted in
// order (cyclically), with the key identity of each for the reference.
type streamSource struct {
	n, domain int
	id        func(i int) uint64
	open      func(opts ...semisort.StreamOption) submitter
	// dedup runs one Dedup over pool[lo:lo+n], the engine call of a flush,
	// and returns how many records it kept.
	dedup func(rt *semisort.Runtime, lo, n int) (int, error)
}

func dedupSubmitter[R, K any](ds *semisort.DedupStream[R, K], pool []R) submitter {
	return submitter{
		submit:   func(i int) <-chan semisort.StreamResult[semisort.DedupKept] { return ds.Submit(pool[i%len(pool)]) },
		distinct: ds.Distinct, close: ds.Close, metrics: ds.Metrics,
	}
}

func u64Stream(pool []rec64, domain int) streamSource {
	return streamSource{n: len(pool), domain: domain,
		id: func(i int) uint64 { return pool[i%len(pool)].K },
		open: func(opts ...semisort.StreamOption) submitter {
			return dedupSubmitter(semisort.NewDedupStream(key64, semisort.Hash64, eq64, opts...), pool)
		},
		dedup: func(rt *semisort.Runtime, lo, n int) (int, error) {
			out, err := semisort.DedupE(pool[lo:lo+n], key64, semisort.Hash64, eq64, semisort.WithRuntime(rt))
			return len(out), err
		}}
}

func strStream(pool []recStr, ids []uint64, domain int) streamSource {
	return streamSource{n: len(pool), domain: domain,
		id: func(i int) uint64 { return ids[i%len(ids)] },
		open: func(opts ...semisort.StreamOption) submitter {
			return dedupSubmitter(semisort.NewDedupStream(keyStr, semisort.HashString,
				func(a, b string) bool { return a == b }, opts...), pool)
		},
		dedup: func(rt *semisort.Runtime, lo, n int) (int, error) {
			out, err := semisort.DedupStrE(pool[lo:lo+n], keyStr, semisort.WithRuntime(rt))
			return len(out), err
		}}
}

func streamOpts(rt *semisort.Runtime, extra ...semisort.StreamOption) []semisort.StreamOption {
	return append([]semisort.StreamOption{semisort.WithBatchSize(batchSize), semisort.WithMaxWait(maxWait),
		semisort.WithStreamOptions(semisort.WithRuntime(rt))}, extra...)
}

// loop is the reusable state of open-loop runs: result channels and
// per-record latencies, sized for the longest run.
type loop struct {
	chans    []<-chan semisort.StreamResult[semisort.DedupKept]
	lat      []int64 // ns from scheduled send to result
	submitNS []int64 // ns inside Submit, when traced
	submitAt []int64 // ns since start at Submit, when traced
	ref      streamRef
}

// reserve sizes the loop's buffers for total records over an identity
// domain, so a measured phase does not count the benchmark's own buffers.
func (l *loop) reserve(total, domain int, traced bool) {
	if len(l.lat) < total {
		l.chans = make([]<-chan semisort.StreamResult[semisort.DedupKept], total)
		l.lat = make([]int64, total)
	}
	if traced && len(l.submitNS) < total {
		l.submitNS = make([]int64, total)
		l.submitAt = make([]int64, total)
	}
	if len(l.ref.seen) < domain {
		l.ref.seen = make([]uint32, domain)
	}
}

// records is the number of records a phase of warm+dur at rate submits.
func records(rate float64, warm, dur time.Duration) int { return int(rate * (warm + dur).Seconds()) }

// loopRun is one open-loop run's outcome.
type loopRun struct {
	total, warm int   // records submitted; the first warm are warm-up
	lateMax     int64 // ns the generator ran behind its schedule, at worst
	failed      int   // records with an error or a wrong result
	elapsed     int64 // ns from the first scheduled send to the last result
	start       time.Time
}

func (r loopRun) delivered() float64 { return float64(r.total) / (float64(r.elapsed) / 1e9) }

// run submits rate*(warm+dur) records from the start of src's pool into
// sub on schedule, collects every result and checks it against a one-shot
// dedup of the submitted prefix.
func (l *loop) run(sub submitter, src streamSource, rate float64, warm, dur time.Duration, traced bool) loopRun {
	return l.drive(sub, src, records(rate, warm, dur), records(rate, warm, 0), 1e9/rate, traced)
}

// closed submits n records back to back, the producer blocking only when
// the stream's queue is full, and collects and checks them as run does: a
// closed loop whose delivered rate is the stream's capacity.
func (l *loop) closed(sub submitter, src streamSource, n int) loopRun {
	return l.drive(sub, src, n, 0, 0, false)
}

// drive submits total records, record i due interval*i ns after the start
// (all at once for interval 0), the first nWarm of them warm-up.
func (l *loop) drive(sub submitter, src streamSource, total, nWarm int, interval float64, traced bool) loopRun {
	l.reserve(total, src.domain, traced)
	l.ref.reset()
	sched := func(i int) int64 { return int64(float64(i) * interval) }

	var published atomic.Int64
	notify := make(chan struct{}, 1)
	done := make(chan int64)
	start := time.Now()
	go func() {
		var lateMax int64
		publish := func(i int) {
			published.Store(int64(i))
			select {
			case notify <- struct{}{}:
			default:
			}
		}
		for i := 0; i < total; {
			now := int64(time.Since(start))
			due := total
			if interval > 0 {
				due = min(total, int(float64(now)/interval)+1)
			}
			if due <= i {
				time.Sleep(time.Duration(sched(i) - now))
				continue
			}
			lateMax = max(lateMax, now-sched(i))
			for ; i < due; i++ {
				if traced {
					t0 := time.Since(start)
					l.chans[i] = sub.submit(i)
					l.submitAt[i] = int64(t0)
					l.submitNS[i] = int64(time.Since(start) - t0)
				} else {
					l.chans[i] = sub.submit(i)
				}
				if i%256 == 255 {
					publish(i + 1)
				}
			}
			publish(i)
		}
		done <- lateMax
	}()

	out := loopRun{total: total, warm: nWarm, start: start}
	for i := 0; i < total; i++ {
		for int(published.Load()) <= i {
			<-notify
		}
		res := <-l.chans[i]
		l.lat[i] = int64(time.Since(start)) - sched(i)
		l.chans[i] = nil
		want := l.ref.kept(src.id(i))
		if res.Err != nil || res.Out.Kept != want || res.Out.Distinct < l.ref.distinct {
			out.failed++
		}
	}
	out.lateMax = <-done
	out.elapsed = int64(time.Since(start))
	if err := sub.close(); err != nil || sub.distinct() != l.ref.distinct {
		out.failed++
	}
	return out
}

// quantile returns the q-quantile of v (sorted in place), nearest rank.
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return v[min(len(v)-1, int(q*float64(len(v))))]
}

// latencies returns the p50 over the measured records and the median of the
// per-window p99s, in ns, and the number of measured records.
func (l *loop) latencies(r loopRun, rate float64, window time.Duration) (p50, p99 int64, samples int) {
	p50, p99s, samples := l.windowed(r, rate, window)
	if len(p99s) == 0 {
		return p50, 0, samples
	}
	return p50, quantile(p99s, 0.5), samples
}

// windowed returns the p50 over the measured records and the p99 of each
// full window, in ns, and the number of measured records.
func (l *loop) windowed(r loopRun, rate float64, window time.Duration) (p50 int64, p99s []int64, samples int) {
	lat := l.lat[r.warm:r.total]
	per := max(1, int(rate*window.Seconds()))
	for lo := 0; lo+per <= len(lat); lo += per {
		p99s = append(p99s, quantile(slices.Clone(lat[lo:lo+per]), 0.99))
	}
	if len(p99s) == 0 {
		p99s = append(p99s, quantile(slices.Clone(lat), 0.99))
	}
	return quantile(slices.Clone(lat), 0.5), p99s, len(lat)
}

// passes: no record failed, the p99 (median over the rung's windows) is
// within the limit, and the backlog did not grow: the last record, sent
// when the schedule ended, finished within the limit. Above capacity the
// backlog, and with it the latency of each later record, grows for as long
// as the rung lasts, and a full queue blocks Submit, which delays every
// later send against its schedule.
func (l *loop) passes(r loopRun, rate float64) bool {
	_, p99, _ := l.latencies(r, rate, rungWindow)
	return r.failed == 0 && p99 <= int64(latencyLimit) && l.lat[r.total-1] <= int64(latencyLimit)
}

type rung struct {
	rate      float64
	pass      bool
	delivered float64
}

// ladder finds the highest ladder rate that passes: steps of 2x up from the
// fixed rate (whose run is given) to the first failure, then bisection on
// the eighth-octave grid between the last pass and the first failure. It
// returns the delivered rate of the highest passing rung and every rung run.
func ladder(rt *semisort.Runtime, src streamSource, l *loop, fixedPass bool, fixedDelivered float64, t *tally) (float64, []rung) {
	rungs := []rung{{rate: ladderRate(ladderFixed), pass: fixedPass, delivered: fixedDelivered}}
	try := func(k int) bool {
		runtime.GC()
		r := l.run(src.open(streamOpts(rt)...), src, ladderRate(k), rungWarm, rungLen, false)
		t.add(r.total, r.failed, fmt.Sprintf("stream at %.3g Mrec/s", ladderRate(k)/1e6), nil)
		rungs = append(rungs, rung{rate: ladderRate(k), pass: l.passes(r, ladderRate(k)), delivered: r.delivered()})
		return rungs[len(rungs)-1].pass
	}
	pass, fail := ladderFixed, -1
	if fixedPass {
		for k := ladderFixed + 8; k <= ladderTop; k += 8 {
			if !try(k) {
				fail = k
				break
			}
			pass = k
		}
	} else {
		pass, fail = -1, ladderFixed
		if try(0) {
			pass = 0
		}
	}
	for pass >= 0 && fail > pass+1 {
		mid := (pass + fail) / 2
		if try(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	for _, r := range rungs {
		if r.pass && pass >= 0 && r.rate == ladderRate(pass) {
			return r.delivered, rungs
		}
	}
	return rungs[len(rungs)-1].delivered, rungs // no rung met the limit
}

// noopRate pushes recs records closed-loop through a bare batcher whose
// processor does nothing, collecting them as the open loop does: the
// submit/flush/deliver ceiling of the stream layer without the engine.
func noopRate(recs int) float64 {
	b := stream.New(stream.Config{BatchSize: batchSize, MaxWait: maxWait},
		func(batch []int) ([]struct{}, func(), error) { return make([]struct{}, len(batch)), nil, nil })
	chans := make([]<-chan stream.Result[struct{}], recs)
	var published atomic.Int64
	notify := make(chan struct{}, 1)
	start := time.Now()
	go func() {
		for i := range chans {
			chans[i] = b.Submit(i)
			if i%256 == 255 || i == recs-1 {
				published.Store(int64(i + 1))
				select {
				case notify <- struct{}{}:
				default:
				}
			}
		}
	}()
	for i := range chans {
		for int(published.Load()) <= i {
			<-notify
		}
		<-chans[i]
	}
	d := time.Since(start)
	_ = b.Close() // no flush can fail: the processor returns no error
	return float64(recs) / d.Seconds()
}

// streamStats are the stream layer's numbers from the traced run.
type streamStats struct {
	submitNS, queueWaitMS, p50MS, p99MS float64
	fixedPass                           bool
	fixedDelivered                      float64
	flushP50, flushP99                  float64
	allocsPerFlush, noop                float64
	smallDedupUS                        float64
	lateMax                             int64
	records                             int
	m                                   semisort.StreamMetrics
}

// streamTrace runs the fixed-rate phase traced: every Submit is timed and
// a flush hook stamps each flush's start, so each record's queue wait is
// its flush's start minus its submit time (one producer: flushes take
// records in submit order).
func streamTrace(cfg config, wl *workload, rt *semisort.Runtime, t *tally, tr *tracer, parent int) streamStats {
	type flush struct {
		at      time.Time
		records int
	}
	dur := time.Duration(cfg.seconds * 0.1 * float64(time.Second))
	total := records(fixedRate, fixedWarm, dur)
	// Appended by the flusher, read after Close joined it; sized so the
	// appends do not count as the stream's allocations.
	flushes := make([]flush, 0, total)
	hook := func(_ int64, n int) { flushes = append(flushes, flush{time.Now(), n}) }
	var l loop
	l.reserve(total, wl.stream.domain, true)
	sub := wl.stream.open(streamOpts(rt, semisort.WithFlushHook(hook))...)
	runtime.GC()
	o0 := heapObjects()
	id := tr.begin("stream.DedupStream", parent, 0)
	r := l.run(sub, wl.stream, fixedRate, fixedWarm, dur, true)
	tr.end(id)
	objs := heapObjects() - o0
	t.add(r.total, r.failed, "traced stream", nil)

	st := streamStats{m: sub.metrics(), lateMax: r.lateMax, records: r.total - r.warm}
	st.submitNS = float64(quantile(slices.Clone(l.submitNS[r.warm:r.total]), 0.5))
	p50, p99, _ := l.latencies(r, fixedRate, p99Window)
	st.p50MS, st.p99MS = float64(p50)/1e6, float64(p99)/1e6
	st.fixedPass, st.fixedDelivered = l.passes(r, fixedRate), r.delivered()
	var waits []int64
	i := 0
	for _, f := range flushes {
		at := int64(f.at.Sub(r.start))
		for j := 0; j < f.records && i < r.total; j, i = j+1, i+1 {
			if i >= r.warm {
				waits = append(waits, at-l.submitAt[i])
			}
		}
	}
	st.queueWaitMS = float64(quantile(waits, 0.5)) / 1e6
	st.flushP50 = histQuantile(st.m.CommitNS, 0.5) / 1e6
	st.flushP99 = histQuantile(st.m.CommitNS, 0.99) / 1e6
	st.allocsPerFlush = float64(objs) / float64(max(1, st.m.Flushes))

	id = tr.begin("stream.Batcher(no-op)", parent, 0)
	st.noop = noopRate(1 << 20)
	tr.end(id)

	id = tr.begin("semisort.Dedup(batch)", parent, 0)
	var us []float64
	failed := 0
	for c := 0; c < 200; c++ {
		lo := (c * batchSize) % max(1, wl.stream.n-batchSize)
		t0 := time.Now()
		kept, err := wl.stream.dedup(rt, lo, batchSize)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		l.ref.reset()
		for j := lo; j < lo+batchSize; j++ {
			l.ref.kept(wl.stream.id(j))
		}
		if err != nil || int64(kept) != l.ref.distinct {
			failed++
		}
	}
	tr.end(id)
	t.add(len(us), failed, "stream-batch dedup", nil)
	st.smallDedupUS = median(us)
	return st
}

// histQuantile interpolates the q-quantile of a log2 histogram linearly
// within its bucket (bucket i holds [2^(i-1), 2^i)).
func histQuantile(h semisort.LogHist, q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= want {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			return lo + (want-cum)/float64(c)*lo
		}
		cum += float64(c)
	}
	return math.Ldexp(1, len(h.Counts)-1)
}
