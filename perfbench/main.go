// Command perfbench is the repository's benchmark: it runs one named
// workload against the semisort engine, checks every output against a
// map-based reference, and prints its metrics by name with their units,
// ending with one JSON line:
//
//	go run . --workload u64-zipf --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it runs the same workload traced and prints the
// per-layer metrics instead. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	semisort "repro"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
	sizes    sizes
	calN     int // records of the host calibration arrays
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "u64-uniform | u64-zipf | str-zipf | stream-dedup")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: runtime.NumCPU(), sizes: fullSizes, calN: 1 << 22}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// tally counts operations: engine calls and stream records. The first
// failure of each kind is printed with its cause.
type tally struct {
	attempted, failed int
	printed           map[string]bool
	w                 io.Writer
}

func (t *tally) add(n, failed int, what string, err error) {
	t.attempted += n
	t.failed += failed
	if failed > 0 && !t.printed[what] && len(t.printed) < 20 {
		if t.printed == nil {
			t.printed = map[string]bool{}
		}
		t.printed[what] = true
		fmt.Fprintf(t.w, "FAILED %s: %d of %d", what, failed, n)
		if err != nil {
			fmt.Fprintf(t.w, ": %v", err)
		}
		fmt.Fprintln(t.w)
	}
}

// report prints metrics as it collects them.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "  %-34s %14.6g %-8s %s\n", name, v, unit, note)
}

// absent prints a metric the run could not measure, with the reason, and
// leaves it out of the result rather than reporting a zero.
func (r *report) absent(name, unit, why string) {
	fmt.Fprintf(r.w, "  %-34s %14s %-8s %s\n", name, "absent", unit, why)
}

func execute(cfg config, w io.Writer) (result, error) {
	build, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	printRunRecord(w, cfg)
	s0, c0 := cpuSteal()
	fl := calibrate(w, cfg.calN)
	t0 := time.Now()
	wl := build(cfg.seed, cfg.sizes)
	fmt.Fprintf(w, "workload %s: %s (generated with references in %.2fs)\n", wl.name, wl.desc, time.Since(t0).Seconds())
	t := &tally{w: w}
	rep := &report{w: w, metrics: map[string]metric{}}
	if cfg.trace {
		traced(cfg, wl, fl, t, rep)
	} else {
		endToEnd(cfg, wl, t, rep)
	}
	if s1, c1 := cpuSteal(); c1 > c0 {
		share := float64(s1-s0) / float64(c1-c0)
		fmt.Fprintf(w, "cpu time stolen by the hypervisor during the run: %.1f%%\n", share*100)
	}
	ratio := float64(t.failed) / float64(max(1, t.attempted))
	fmt.Fprintf(w, "  %-34s %14.6g %-8s %d failed of %d attempted\n", "failed_ratio", ratio, "ratio", t.failed, t.attempted)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: rep.metrics}, nil
}

const (
	setupReps    = 3
	maxSetupReps = 25
	setupBudget  = 2 * time.Second
)

// setupOnce creates a runtime and makes one cold call of every op, then
// opens a stream and pushes its first full batch through. It returns the
// runtime and the seconds spent in those calls (input selection and output
// checks excluded).
func setupOnce(cfg config, wl *workload, t *tally) (*semisort.Runtime, float64) {
	wl.use(0)
	t0 := time.Now()
	rt := semisort.NewRuntime(cfg.workers)
	spent := time.Since(t0)
	opts := []semisort.Option{semisort.WithRuntime(rt)}
	for _, o := range wl.ops {
		if o.prep != nil {
			o.prep()
		}
		t0 = time.Now()
		err := safeCall(func() error { return o.call(opts) })
		spent += time.Since(t0)
		if err == nil {
			err = o.check()
		}
		t.add(1, b2i(err != nil), "setup "+o.name, err)
	}
	t0 = time.Now()
	sub := wl.stream.open(streamOpts(rt)...)
	chans := make([]<-chan semisort.StreamResult[semisort.DedupKept], batchSize)
	for i := range chans {
		chans[i] = sub.submit(i)
	}
	for _, ch := range chans {
		<-ch
	}
	err := sub.close()
	spent += time.Since(t0)
	t.add(1, b2i(err != nil), "setup stream", err)
	return rt, spent.Seconds()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// callTimes is one op's timed calls.
type callTimes struct {
	secs []float64
	recs int64
}

// rounds runs the ops round after round until budget has passed (at least
// minRounds), timing each call alone and checking each output untimed.
// It returns the per-op times and the heap bytes the timed calls allocated.
func rounds(wl *workload, opts []semisort.Option, budget time.Duration, minRounds int, t *tally) ([]callTimes, uint64) {
	times := make([]callTimes, len(wl.ops))
	var alloc uint64
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < budget; r++ {
		wl.use(r % wl.inputs)
		for k, o := range wl.ops {
			if o.prep != nil {
				o.prep()
			}
			if wl.gcEach {
				runtime.GC()
			}
			a0 := heapAllocs()
			t0 := time.Now()
			err := safeCall(func() error { return o.call(opts) })
			d := time.Since(t0)
			alloc += heapAllocs() - a0
			if err == nil {
				err = o.check()
			}
			t.add(1, b2i(err != nil), o.name, err)
			times[k].secs = append(times[k].secs, d.Seconds())
			times[k].recs += int64(o.recs())
		}
	}
	return times, alloc
}

func endToEnd(cfg config, wl *workload, t *tally, rep *report) {
	var rt *semisort.Runtime
	var setups []float64
	phase := time.Now()
	// At least three set-ups, more while they are short, so a set-up of a
	// few milliseconds is still a median of many.
	for i := 0; i < setupReps || (i < maxSetupReps && time.Since(phase) < setupBudget); i++ {
		if rt != nil {
			rt.Close()
			runtime.GC()
			debug.FreeOSMemory() // each set-up starts as cold as the first
		}
		var s float64
		rt, s = setupOnce(cfg, wl, t)
		setups = append(setups, s)
	}
	defer rt.Close()
	opts := []semisort.Option{semisort.WithRuntime(rt)}

	setupWall := time.Since(phase)
	phase = time.Now()
	batchBudget := time.Duration(cfg.seconds * batchShare * float64(time.Second))
	times, alloc := rounds(wl, opts, batchBudget, 3, t)
	roundsWall := time.Since(phase)
	phase = time.Now()

	var l loop
	fixedDur := time.Duration(cfg.seconds * fixedShare * float64(time.Second))
	l.reserve(max(closedRecs, records(fixedRate, fixedWarm, fixedDur)), wl.stream.domain, false)
	runtime.GC()
	debug.FreeOSMemory() // the stream starts from the same heap state in every run
	a0 := heapAllocs()
	// Closed-loop passes, each on a fresh stream from a collected heap.
	var closed []float64
	streamRecs := 0
	closedBudget := time.Duration(cfg.seconds * closedShare * float64(time.Second))
	for start := time.Now(); len(closed) < 3 || time.Since(start) < closedBudget; {
		runtime.GC()
		r := l.closed(wl.stream.open(streamOpts(rt)...), wl.stream, closedRecs)
		t.add(r.total, r.failed, "stream closed loop", nil)
		closed = append(closed, r.delivered())
		streamRecs += r.total
	}
	runtime.GC()
	fr := l.run(wl.stream.open(streamOpts(rt)...), wl.stream, fixedRate, fixedWarm, fixedDur, false)
	streamAlloc := heapAllocs() - a0
	streamRecs += fr.total
	t.add(fr.total, fr.failed, "stream at the fixed rate", nil)
	p50, p99s, _ := l.windowed(fr, fixedRate, p99Window)

	fmt.Fprintf(rep.w, "phases: set-ups %.1fs, call rounds %.1fs, stream %.1fs\n",
		setupWall.Seconds(), roundsWall.Seconds(), time.Since(phase).Seconds())
	fmt.Fprintf(rep.w, "end-to-end metrics (tracing off, %d workers, %s):\n", cfg.workers, wl.name)
	var recs int64
	for k, o := range wl.ops {
		ct := times[k]
		recs += ct.recs
		perCall := float64(ct.recs) / float64(len(ct.secs))
		rep.add(o.name+"_mrecs", perCall/median(ct.secs)/1e6, "Mrec/s",
			fmt.Sprintf("median of %d calls, %.0f records each; call times %s", len(ct.secs), perCall, spreadNote(ct.secs)))
	}
	rep.add("stream_mrecs", median(closed)/1e6, "Mrec/s", fmt.Sprintf("closed loop through a DedupStream, median of %d passes of %d records; rates %s",
		len(closed), closedRecs, spreadNote(closed)))
	// Stream latency follows the host's co-tenants too closely to gate on;
	// the traced run reports it per layer. It is printed here for reference.
	win := make([]string, len(p99s))
	for i, v := range p99s {
		win[i] = fmt.Sprintf("%.1f", float64(v)/1e6)
	}
	fmt.Fprintf(rep.w, "  (stream at %.2g Mrec/s: p50 %.2f ms; p99 per %v window, ms: %s)\n",
		fixedRate/1e6, float64(p50)/1e6, p99Window, strings.Join(win, " "))
	rep.add("alloc_bytes_per_rec", float64(alloc+streamAlloc)/float64(recs+int64(streamRecs)), "B/rec",
		fmt.Sprintf("over %d timed-call and %d stream records", recs, streamRecs))
	rep.add("peak_rss_mb", peakRSS()/1e6, "MB", "VmHWM of the process")
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %s", len(setups), fmtSecs(setups)))
}

// Shares of --seconds: timed engine-call rounds, closed-loop stream passes
// of closedRecs records, then the fixed-rate stream phase.
const (
	batchShare  = 0.65
	closedShare = 0.1
	fixedShare  = 0.15
	closedRecs  = 1 << 18
)

// spreadNote gives the quartiles of a run's call times relative to their
// median, so a reader can see how steady the run was.
func spreadNote(v []float64) string {
	if len(v) < 4 {
		return "too few for quartiles"
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := median(s)
	q1, q3 := s[len(s)/4], s[(3*len(s))/4]
	return fmt.Sprintf("q1 %+.1f%% q3 %+.1f%% of the median", (q1/m-1)*100, (q3/m-1)*100)
}

func fmtSecs(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// heapAllocs returns the cumulative bytes allocated on the Go heap.
func heapAllocs() uint64 {
	metrics.Read(allocSample[:1])
	return allocSample[0].Value.Uint64()
}

// heapObjects returns the cumulative count of heap objects allocated.
func heapObjects() uint64 {
	metrics.Read(allocSample[1:])
	return allocSample[1].Value.Uint64()
}

// peakRSS returns the process's peak resident set in bytes (VmHWM), or the
// Go runtime's total mapped memory where /proc is unavailable.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb * 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys)
}

// printRunRecord names everything a reader needs to reproduce the run.
func printRunRecord(w io.Writer, cfg config) {
	mode := "end-to-end (tracing off)"
	if cfg.trace {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g mode=%s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d workers=%d %s %s/%s caches: %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.workers, runtime.Version(), runtime.GOOS, runtime.GOARCH, cacheSizes())
}

// cpuSteal reads the host's cumulative stolen and total CPU time from
// /proc/stat (zeros where it is unavailable).
func cpuSteal() (stolen, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

// cacheSizes reads the data and unified cache sizes of CPU 0 from sysfs.
func cacheSizes() string {
	var parts []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		typ, err2 := os.ReadFile(dir + "type")
		size, err3 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil || err3 != nil {
			break
		}
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		parts = append(parts, "L"+strings.TrimSpace(string(level))+"="+strings.TrimSpace(string(size)))
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, " ")
}
