package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	semisort "repro"
)

var tiny = sizes{u64: 1 << 12, str: 1 << 12, small: 512, pool: 1 << 13}

// benchMetrics reads the metric names and units BENCHMARK.json promises.
func benchMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each promised metric is printed on a report line and in the
// JSON result, with its unit, and that no operation failed.
func TestSmoke(t *testing.T) {
	e2e, layer := benchMetrics(t)
	for _, name := range []string{"u64-uniform", "u64-zipf", "str-zipf", "stream-dedup"} {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			var out bytes.Buffer
			cfg := config{workload: name, seed: 7, seconds: 1, trace: trace, workers: 2, sizes: tiny, calN: 1 << 12}
			res, err := execute(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed\n%s", name, trace, res.Failed, res.Attempted, out.String())
			}
			if absent := checkPrinted(t, res, out.String(), want); len(absent) > 0 {
				t.Errorf("%s trace=%v: absent metrics %v", name, trace, absent)
			}
		}
	}
}

// checkPrinted checks that each metric in want is on a report line with its
// unit, and in the JSON result unless the line reports it absent. It
// returns the absent metrics.
func checkPrinted(t *testing.T, res result, out string, want map[string]string) (absent []string) {
	t.Helper()
	if len(res.Metrics) > len(want) {
		t.Errorf("%d metrics in the result, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for m, unit := range want {
		line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m) + ` +(\S+) ` + regexp.QuoteMeta(unit) + ` `).FindStringSubmatch(out)
		got, ok := res.Metrics[m]
		switch {
		case line == nil:
			t.Errorf("no report line for %s in %s", m, unit)
		case line[1] == "absent":
			absent = append(absent, m)
			if ok {
				t.Errorf("%s reported absent but in the result as %+v", m, got)
			}
		case !ok || got.Unit != unit:
			t.Errorf("metric %s = %+v, want unit %s", m, got, unit)
		}
	}
	slices.Sort(absent)
	return absent
}

// TestAbsentCallStats: at GOMAXPROCS 1 the unary string ops take the serial
// bucketed plane, which keeps no CallStats, so their core metrics are
// reported absent, not zero; the join still runs through core and reports.
func TestAbsentCallStats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, layer := benchMetrics(t)
	var out bytes.Buffer
	cfg := config{workload: "str-zipf", seed: 7, seconds: 0.5, trace: true, workers: 2,
		sizes: sizes{u64: tiny.u64, str: 1 << 15, small: tiny.small, pool: tiny.pool}, calN: 1 << 12}
	res, err := execute(cfg, &out)
	if err != nil || !res.Correct {
		t.Fatalf("err %v, %d of %d failed\n%s", err, res.Failed, res.Attempted, out.String())
	}
	absent := checkPrinted(t, res, out.String(), layer)
	for _, op := range []string{"sort", "collect", "dedup"} {
		if !slices.Contains(absent, "core.leaf_ms."+op) || !slices.Contains(absent, "core.levels."+op) {
			t.Errorf("core metrics of %s not reported absent; absent: %v", op, absent)
		}
	}
	if len(absent) != 3*9 {
		t.Errorf("%d absent metrics, want the 9 core metrics of 3 ops: %v", len(absent), absent)
	}
}

// TestCorruptDedupCountsAsFailed drops one record from each Dedup output and
// checks that every such call lands in the failed count, so the run reports
// correct=false and a non-zero failed_ratio.
func TestCorruptDedupCountsAsFailed(t *testing.T) {
	wl := workloads["u64-zipf"](3, tiny)
	in := genU64(tiny.u64, newKeyGen(tiny.u64+1, 1.2), 3) // the workload's input, drawn again
	var kept []rec64
	wl.ops = []op{{name: "dedup", recs: func() int { return len(in) },
		call: func(o []semisort.Option) (err error) {
			kept, err = semisort.DedupE(in, key64, semisort.Hash64, eq64, o...)
			kept = kept[:len(kept)-1]
			return err
		},
		check: func() error { return checkDedup(wl.ref, kept, key64, func(r rec64) uint64 { return r.V }) }}}
	var out bytes.Buffer
	tl := &tally{w: &out}
	rounds(wl, nil, 0, 3, tl)
	if tl.attempted != 3 || tl.failed != 3 {
		t.Fatalf("attempted %d, failed %d; want 3 and 3", tl.attempted, tl.failed)
	}
	if !strings.Contains(out.String(), "FAILED dedup") {
		t.Errorf("failure not reported: %q", out.String())
	}

	// The same op with its output intact passes.
	wl.ops[0].call = func(o []semisort.Option) (err error) {
		kept, err = semisort.DedupE(in, key64, semisort.Hash64, eq64, o...)
		return err
	}
	tl = &tally{w: &out}
	rounds(wl, nil, 0, 3, tl)
	if tl.failed != 0 {
		t.Fatalf("intact output failed %d times: %s", tl.failed, out.String())
	}
}

// TestUnknownWorkload: a bad workload name is an error, not a result.
func TestUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("printed a result for an unknown workload: %s", out.String())
	}
}
