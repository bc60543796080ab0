package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
	"unsafe"

	semisort "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sampling"
	"repro/internal/strkey"
)

// The traced run measures each layer from outside: it times the calls the
// benchmark makes into each module's public functions, reads the counters
// those modules expose (CallStats, Runtime.Metrics, stream Metrics) at the
// same boundaries, and keeps every span in memory until the run ends.

// span is one timed call: name, interval, parent span and round.
type span struct {
	name          string
	parent, round int
	start, end    time.Duration
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, parent, round int) int {
	tr.spans = append(tr.spans, span{name: name, parent: parent, round: round, start: time.Since(tr.t0)})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) time.Duration {
	tr.spans[id].end = time.Since(tr.t0)
	return tr.spans[id].end - tr.spans[id].start
}

// summary prints, per span name, the count, total and self time: a span's
// duration minus the part its children cover.
func (tr *tracer) summary(w io.Writer) {
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for i, s := range tr.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.total += s.end - s.start
		a.self += s.end - s.start - child[i]
	}
	fmt.Fprintf(w, "spans (%d recorded):\n", len(tr.spans))
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(w, "  %-28s n=%-6d total %10.2f ms  self %10.2f ms\n", name, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6)
	}
	// The slowest round by id against the median round: a stall of the
	// shared host shows as one round far above the rest.
	var rounds []float64
	slow := -1
	for i, s := range tr.spans {
		if s.name != "round" {
			continue
		}
		rounds = append(rounds, float64(s.end-s.start)/1e6)
		if slow < 0 || s.end-s.start > tr.spans[slow].end-tr.spans[slow].start {
			slow = i
		}
	}
	if slow >= 0 {
		s := tr.spans[slow]
		fmt.Fprintf(w, "  rounds: median %.2f ms; slowest is round %d, %.2f ms, of which traced calls %.2f ms\n",
			median(rounds), s.round, float64(s.end-s.start)/1e6, float64(child[slow])/1e6)
	}
}

// layerInput is a workload's records as the layer probes see them.
type layerInput struct {
	n, recBytes int
	words       []uint64 // keys as 64-bit words (string keys: identities)
	strs        []string // keys as bytes (u64 keys: 8 little-endian bytes)
	probe       func(rt *parallel.Runtime, seed uint64, tr *tracer, parent int) layerTimes
}

// layerTimes are one pass of the direct layer calls.
type layerTimes struct {
	sample, scatter, build, copyIn time.Duration
	heavy                          int
}

func u64Layer(in []rec64) layerInput {
	arena := make([]byte, 8*len(in))
	strs := make([]string, len(in))
	for i, r := range in {
		for b := 0; b < 8; b++ {
			arena[8*i+b] = byte(r.K >> (8 * b))
		}
		strs[i] = unsafe.String(&arena[8*i], 8)
	}
	return newLayerInput(in, key64, hashutil.Mix64, eq64, keysOf(in), strs,
		func(dst []byte, r rec64) []byte {
			return append(dst, byte(r.K), byte(r.K>>8), byte(r.K>>16), byte(r.K>>24),
				byte(r.K>>32), byte(r.K>>40), byte(r.K>>48), byte(r.K>>56))
		})
}

func strLayer(in []recStr, ids []uint64) layerInput {
	strs := make([]string, len(in))
	for i, r := range in {
		strs[i] = r.K
	}
	return newLayerInput(in, keyStr, strHash, func(a, b string) bool { return a == b }, ids, strs,
		func(dst []byte, r recStr) []byte { return append(dst, r.K...) })
}

func strHash(s string) uint64 { return strkey.Bytes(unsafe.Slice(unsafe.StringData(s), len(s))) }

// newLayerInput builds the direct layer calls over recs: one level-0
// sampling round, one distribution level at core's default fan-out
// (records plus hash plane), one arena key-plane build and one parallel
// copy.
func newLayerInput[R, K any](recs []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool,
	words []uint64, strs []string, appendKey strkey.AppendKey[R]) layerInput {
	n := len(recs)
	var zero R
	li := layerInput{n: n, recBytes: int(unsafe.Sizeof(zero)), words: words, strs: strs}
	li.probe = func(rt *parallel.Runtime, seed uint64, tr *tracer, parent int) layerTimes {
		var lt layerTimes
		cfg := core.Config{}.WithDefaults()
		sc := rt.Scratch()
		hs := make([]uint64, n)
		logN := sampling.CeilLog2(n)
		p := sampling.Params{SampleSize: cfg.SampleFactor * logN, Thresh: max(2, logN/2),
			IDBase: cfg.LightBuckets, CollapsePercent: 75, MaxHeavy: dist.MaxBuckets - 1 - cfg.LightBuckets, Scratch: sc}
		r := hashutil.NewRNG(seed)
		id := tr.begin("sampling.BuildFused", parent, 0)
		tab, buf, _ := sampling.BuildFused(recs, hs, key, hash, eq, p, &r)
		lt.sample = tr.end(id)
		if tab != nil {
			lt.heavy = tab.NH
			tab.Release(sc)
		}
		if buf != nil {
			buf.Release()
		}

		dst := make([]R, n)
		hdst := make([]uint64, n)
		for i, rec := range recs {
			hs[i] = hash(key(rec))
		}
		nB := cfg.LightBuckets
		l := max((n+cfg.MaxSubarrays-1)/cfg.MaxSubarrays, cfg.MinSubarray)
		starts := make([]int, nB+1)
		mask := uint64(nB - 1)
		id = tr.begin("dist.StableFilledInto", parent, 0)
		dist.StableFilledInto(rt, recs, dst, hs, hdst, nB, l, nB, func(lo, hi int, ids []uint16, row []int32) {
			for j := lo; j < hi; j++ {
				b := hs[j] & mask
				ids[j-lo] = uint16(b)
				row[b]++
			}
		}, starts)
		lt.scatter = tr.end(id)

		var plane strkey.Plane
		id = tr.begin("strkey.Build", parent, 0)
		strkey.Build(&plane, 0, recs, appendKey, strkey.Bytes, core.Config{Runtime: rt})
		lt.build = tr.end(id)
		plane.Release()

		id = tr.begin("parallel.CopyIn", parent, 0)
		parallel.CopyIn(rt, dst, recs)
		lt.copyIn = tr.end(id)
		return lt
	}
	return li
}

// stageSum adds up a pipeline's per-stage stats.
func stageSum(st []semisort.StageStats) obs.CallStats {
	var s obs.CallStats
	for _, x := range st {
		s.Add(x.Stats)
	}
	return s
}

// checkIdentities enforces the stats plane's contract on one call: the
// engine hashed each input record exactly once (wantHash is the input's
// record count, or 0 for string keys, whose digests the arena key plane
// computes while building, outside the counted user-hash path, so the
// engine must not hash them again), and every classified record was either
// scattered or absorbed.
func checkIdentities(s obs.CallStats, wantHash int) error {
	if s.HashCalls != int64(wantHash) {
		return fmt.Errorf("HashCalls = %d, want %d", s.HashCalls, wantHash)
	}
	if s.Scattered+s.Absorbed != s.Classified {
		return fmt.Errorf("Scattered %d + Absorbed %d != Classified %d", s.Scattered, s.Absorbed, s.Classified)
	}
	return nil
}

// opTrace is one op's traced-run record.
type opTrace struct {
	plain, traced []float64 // call seconds without and with tracing
	plan, distr   []float64
	leaf          []float64
	last          obs.CallStats
	reported      bool // some traced call filled its CallStats
	pipeHash      int64
}

func traced(cfg config, wl *workload, fl floors, t *tally, rep *report) {
	tr := &tracer{t0: time.Now()}
	root := tr.begin("workload "+wl.name, -1, 0)
	rt := semisort.NewRuntime(cfg.workers)
	defer rt.Close()
	opts := []semisort.Option{semisort.WithRuntime(rt)}
	rounds(wl, opts, 0, 1, t) // warm the runtime's pools

	gc0 := gcCounters()
	// Direct layer calls, three passes; medians reported.
	lid := tr.begin("layers", root, 0)
	var passes []layerTimes
	for i := 0; i < 3; i++ {
		runtime.GC()
		passes = append(passes, wl.layer.probe(rt, cfg.seed, tr, lid))
	}
	mixNS, wideNS := hashRates(wl.layer, tr, lid)
	forkUS := forkTime(rt, tr, lid)
	tr.end(lid)

	// Engine calls, each run untraced and traced in alternating order.
	m0 := rt.Metrics()
	ops := tracedRounds(wl, opts, time.Duration(cfg.seconds*0.45*float64(time.Second)), tr, root, t)
	m1 := rt.Metrics()

	// The single-threaded baseline: the same calls on a one-worker runtime.
	sid := tr.begin("single-worker", root, 0)
	rt1 := semisort.NewRuntime(1)
	single, _ := rounds(wl, []semisort.Option{semisort.WithRuntime(rt1)}, time.Duration(cfg.seconds*0.1*float64(time.Second)), 1, t)
	rt1.Close()
	tr.end(sid)

	// The stream, traced: per-record submit time and per-flush start.
	stid := tr.begin("stream", root, 0)
	st := streamTrace(cfg, wl, rt, t, tr, stid)
	lid = tr.begin("stream.ladder", stid, 0)
	var l loop
	sustained, rungs := ladder(rt, wl.stream, &l, st.fixedPass, st.fixedDelivered, t)
	tr.end(lid)
	tr.end(stid)
	gc1 := gcCounters()
	tr.end(root)

	w := rep.w
	tr.summary(w)
	fmt.Fprintf(w, "per-layer metrics (traced, %d workers, %s):\n", cfg.workers, wl.name)
	med := func(f func(layerTimes) time.Duration) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p).Seconds()
		}
		return median(v)
	}
	n := float64(wl.layer.n)
	recBytes := n * float64(wl.layer.recBytes)

	rep.add("host.copy_gbs", fl.copyGBs, "GB/s", fmt.Sprintf("floor: one-thread copy of %s", fmtBytes(float64(fl.bytes))))
	rep.add("host.scatter_mrecs", fl.scatterMrecs, "Mrec/s", fmt.Sprintf("floor: one-thread random scatter of %d 16-byte records", fl.n))
	rep.add("host.hash_mkeys", fl.hashMkeys, "Mkey/s", "floor: inline 64-bit mix over the same keys")

	stolen := float64(m1.ChunksStolen - m0.ChunksStolen)
	all := stolen + float64(m1.ChunksByOwner-m0.ChunksByOwner)
	rep.add("parallel.stolen_share", stolen/max(1, all), "ratio", fmt.Sprintf("%.0f of %.0f chunks over the traced rounds", stolen, all))
	for k, o := range wl.ops {
		rep.add("parallel.speedup."+o.name, median(single[k].secs)/median(ops[k].plain), "x",
			fmt.Sprintf("1-worker median (%d calls) / %d-worker median (%d calls)", len(single[k].secs), cfg.workers, len(ops[k].plain)))
	}
	rep.add("parallel.fork_us", forkUS, "us", "median of 20 means of 100 empty 2-chunk ForRange calls")
	copyGBs := recBytes / med(func(p layerTimes) time.Duration { return p.copyIn }) / 1e9
	rep.add("parallel.copy_gbs", copyGBs, "GB/s", fmt.Sprintf("CopyIn of %s; %.2f of the host copy floor", fmtBytes(recBytes), copyGBs/fl.copyGBs))

	rep.add("hashutil.mix64_ns", mixNS, "ns", fmt.Sprintf("per key; %.2f of the host hash floor", 1e3/mixNS/fl.hashMkeys))
	rep.add("hashutil.widebytes_ns", wideNS, "ns", "per key over the keys' bytes")
	heavy := make([]float64, len(passes))
	for i, p := range passes {
		heavy[i] = float64(p.heavy)
	}
	rep.add("sampling.build_ms", med(func(p layerTimes) time.Duration { return p.sample })*1e3, "ms", "one level-0 BuildFused, median of 3")
	rep.add("sampling.heavy_keys", median(heavy), "count", "heavy keys that round promoted")
	scat := n / med(func(p layerTimes) time.Duration { return p.scatter }) / 1e6
	rep.add("dist.scatter_mrecs", scat, "Mrec/s", fmt.Sprintf("one StableFilledInto level, 1024 buckets, records + hash plane; %.2f of the host scatter floor", scat/fl.scatterMrecs))
	rep.add("strkey.build_ms", med(func(p layerTimes) time.Duration { return p.build })*1e3, "ms", "strkey.Build of the workload's keys, median of 3")

	for k, o := range wl.ops {
		ot, recs := ops[k], float64(o.recs())
		s := ot.last
		note := fmt.Sprintf("median of %d traced calls", len(ot.traced))
		add := rep.add
		if !ot.reported {
			// No traced call filled its stats: the op bypassed core
			// (at GOMAXPROCS 1 the unary string ops take the serial
			// bucketed plane, which keeps no CallStats). Zeros would read
			// as measured, so the values are reported absent.
			add = func(name string, _ float64, unit, _ string) {
				rep.absent(name, unit, "the call reported no CallStats (it bypassed core)")
			}
		}
		phase := note
		if s.Levels == 0 {
			phase += "; no level planned, the calls went straight to a leaf"
		}
		add("core.plan_ms."+o.name, median(ot.plan), "ms", phase+", summed over recursion nodes")
		add("core.distribute_ms."+o.name, median(ot.distr), "ms", phase)
		add("core.leaf_ms."+o.name, median(ot.leaf), "ms", note)
		add("core.levels."+o.name, float64(s.Levels), "count", fmt.Sprintf("%d serial, %d parallel", s.SerialLevels, s.ParallelLevels))
		add("core.heavy_keys."+o.name, float64(s.HeavyKeys), "count", "summed over levels")
		bw := ""
		if s.DistributeNS > 0 {
			bw = fmt.Sprintf("; %.2f of the host copy floor over distribute time", float64(s.BytesMoved)/float64(s.DistributeNS)/fl.copyGBs)
		}
		add("core.bytes_moved_per_rec."+o.name, float64(s.BytesMoved)/recs, "B/rec", "computed by the engine from its prefix arrays, not measured"+bw)
		add("core.absorbed_per_rec."+o.name, float64(s.Absorbed)/recs, "ratio", fmt.Sprintf("scattered %.3f", float64(s.Scattered)/recs))
		add("core.hash_per_rec."+o.name, float64(s.HashCalls)/recs, "ratio", "user hash calls per input record")
		add("core.eq_per_rec."+o.name, float64(s.EqCalls)/recs, "ratio", "full key comparisons per input record")
	}
	spanMed := func(op string) (float64, int) {
		for k, o := range wl.ops {
			if o.name == op {
				return median(ops[k].traced) * 1e3, len(ops[k].traced)
			}
		}
		return 0, 0
	}
	for _, m := range []struct{ name, op string }{{"collect.reduce_ms", "collect"}, {"rel.dedup_ms", "dedup"}, {"rel.join_ms", "join"}} {
		v, c := spanMed(m.op)
		rep.add(m.name, v, "ms", fmt.Sprintf("median of %d call spans", c))
	}
	for _, o := range wl.ops {
		if o.name == "join" {
			rep.add("rel.join_rows_per_rec", float64(wl.ref.joinRows)/float64(o.recs()), "ratio", "joined rows per input record")
		}
	}

	rep.add("stream.submit_ns", st.submitNS, "ns", fmt.Sprintf("median Submit call at %.2g Mrec/s over %d records", fixedRate/1e6, st.records))
	rep.add("stream.p50_ms", st.p50MS, "ms", fmt.Sprintf("submit-to-result at %.2g Mrec/s over %d records, from the scheduled send", fixedRate/1e6, st.records))
	rep.add("stream.p99_ms", st.p99MS, "ms", fmt.Sprintf("the same, median of the p99s of %v windows", p99Window))
	var ladderNote []string
	for _, r := range rungs {
		ladderNote = append(ladderNote, fmt.Sprintf("%.3g:%s", r.rate/1e6, map[bool]string{true: "ok", false: "over"}[r.pass]))
	}
	rep.add("stream.sustained_mrecs", sustained/1e6, "Mrec/s",
		"delivered at the highest passing rung; rungs "+strings.Join(ladderNote, " "))
	rep.add("stream.queue_wait_ms_p50", st.queueWaitMS, "ms", "Submit to the start of its flush (flush hook)")
	rep.add("stream.flush_ms_p50", st.flushP50, "ms", fmt.Sprintf("commit-latency histogram, %d flushes", st.m.Flushes))
	rep.add("stream.flush_ms_p99", st.flushP99, "ms", "commit-latency histogram, interpolated in its log2 bucket")
	rep.add("stream.batch_recs_mean", float64(st.m.Submitted)/float64(max(1, st.m.Flushes)), "count", "records per flush")
	rep.add("stream.deadline_share", float64(st.m.FlushByDeadline)/float64(max(1, st.m.Flushes)), "ratio", "flushes triggered by the MaxWait deadline")
	rep.add("stream.queue_high_water", float64(st.m.QueueHighWater), "count", "deepest submit queue")
	rep.add("stream.allocs_per_flush", st.allocsPerFlush, "count", "heap objects allocated per flush over the phase")
	rep.add("stream.noop_mrecs", st.noop/1e6, "Mrec/s", "closed loop through a batcher with a no-op processor")
	rep.add("semisort.small_dedup_us", st.smallDedupUS, "us", fmt.Sprintf("median Dedup of a %d-record batch of the stream's records", batchSize))
	for k, o := range wl.ops {
		if o.name == "pipeline" {
			rep.add("semisort.pipeline_hash_per_rec", float64(ops[k].pipeHash)/float64(o.recs()), "ratio", "hash calls of all pipeline stages per input record")
		}
	}

	rep.add("loadgen.late_ms_max", float64(st.lateMax)/1e6, "ms", "worst lag of the generator behind its schedule")
	rep.add("go.gc_cycles", float64(gc1.auto-gc0.auto), "count", "automatic GC cycles over the traced phases")
	rep.add("go.gc_pause_ms", float64(gc1.pauseNS-gc0.pauseNS)/1e6, "ms", "stop-the-world pause over the traced phases, forced GCs included")
	var plain, trc float64
	for _, ot := range ops {
		plain += median(ot.plain)
		trc += median(ot.traced)
	}
	rep.add("obs.overhead_pct", (trc/plain-1)*100, "%", "sum of traced vs untraced call medians")
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.0f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0f KiB", b/(1<<10))
	}
	return fmt.Sprintf("%.0f B", b)
}

// tracedRounds runs rounds of the ops until budget has passed (at least
// two), each op once untraced and once with WithStats and a span, in an
// order that alternates per round, checking every output and every traced
// call's stats identities.
func tracedRounds(wl *workload, opts []semisort.Option, budget time.Duration, tr *tracer, root int, t *tally) []opTrace {
	ops := make([]opTrace, len(wl.ops))
	start := time.Now()
	for r := 0; r < 2 || time.Since(start) < budget; r++ {
		rid := tr.begin("round", root, r)
		wl.use(r % wl.inputs)
		for k, o := range wl.ops {
			for v := 0; v < 2; v++ {
				armed := (v+r)%2 == 1
				if o.prep != nil {
					o.prep()
				}
				if wl.gcEach {
					runtime.GC()
				}
				var s obs.CallStats
				callOpts := opts
				id := -1
				if armed {
					callOpts = append(slices.Clone(opts), semisort.WithStats(&s))
					id = tr.begin(layerOf(wl.name, o.name), rid, r)
				}
				t0 := time.Now()
				err := safeCall(func() error { return o.call(callOpts) })
				d := time.Since(t0).Seconds()
				if armed {
					tr.end(id)
				}
				if err == nil {
					err = o.check()
				}
				t.add(1, b2i(err != nil), o.name, err)
				ot := &ops[k]
				if !armed {
					ot.plain = append(ot.plain, d)
					continue
				}
				ot.traced = append(ot.traced, d)
				ot.plan = append(ot.plan, float64(s.PlanNS)/1e6)
				ot.distr = append(ot.distr, float64(s.DistributeNS)/1e6)
				ot.leaf = append(ot.leaf, float64(s.LeafNS)/1e6)
				ot.last = s
				ot.reported = ot.reported || s != (obs.CallStats{})
				if o.stages != nil {
					ot.pipeHash = stageSum(o.stages()).HashCalls
				} else if o.name == "pipeline" {
					ot.pipeHash = s.HashCalls
				}
				if err == nil {
					err = checkIdentities(s, o.recs()*b2i(!wl.prehashed))
					t.add(1, b2i(err != nil), "stats identity of "+o.name, err)
				}
			}
		}
		tr.end(rid)
	}
	return ops
}

// layerOf names the module a public op enters first.
func layerOf(workload, op string) string {
	switch op {
	case "sort":
		if workload == "str-zipf" {
			return "strkey.SortEq"
		}
		return "core.SortEq"
	case "collect":
		return "collect.Reduce"
	case "dedup":
		return "rel.Dedup"
	case "join":
		return "rel.Join"
	}
	return "semisort.Query"
}

// hashRates times hashutil over the workload's keys: ns per key for Mix64
// over the 64-bit words and WideBytes over the key bytes, medians of 5.
func hashRates(li layerInput, tr *tracer, parent int) (mixNS, wideNS float64) {
	var sink uint64
	var mv, wv []float64
	for i := 0; i < 5; i++ {
		id := tr.begin("hashutil.Mix64", parent, 0)
		for _, x := range li.words {
			sink += hashutil.Mix64(x)
		}
		mv = append(mv, float64(tr.end(id))/float64(len(li.words)))
		id = tr.begin("hashutil.WideBytes", parent, 0)
		for _, s := range li.strs {
			sink += hashutil.WideBytes(unsafe.Slice(unsafe.StringData(s), len(s)))
		}
		wv = append(wv, float64(tr.end(id))/float64(len(li.strs)))
	}
	hashSink = sink
	return median(mv), median(wv)
}

var hashSink uint64

// forkTime is the cost of one empty 2-chunk ForRange: the fork and join of
// a parallel job with nothing in it.
func forkTime(rt *parallel.Runtime, tr *tracer, parent int) float64 {
	id := tr.begin("parallel.ForRange", parent, 0)
	v := make([]float64, 20)
	for i := range v {
		t0 := time.Now()
		for j := 0; j < 100; j++ {
			rt.ForRange(2, 1, func(lo, hi int) {})
		}
		v[i] = time.Since(t0).Seconds() * 1e6 / 100
	}
	tr.end(id)
	return median(v)
}

type gcState struct{ auto, pauseNS uint64 }

var gcSample = []metrics.Sample{{Name: "/gc/cycles/automatic:gc-cycles"}}

func gcCounters() gcState {
	metrics.Read(gcSample)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{auto: gcSample[0].Value.Uint64(), pauseNS: ms.PauseTotalNs}
}
