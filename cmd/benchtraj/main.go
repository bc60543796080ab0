// Command benchtraj keeps the repository's performance trajectory: the
// numbers of perfbench, the benchmark BENCHMARK.json declares, at one worker
// and at nproc workers, in one committed file, BENCH_trajectory.json.
//
// Run from the repository root:
//
//	go run ./cmd/benchtraj write   # make bench
//	go run ./cmd/benchtraj check   # make bench-check
//
// write runs every workload runsPerCell times end to end and once traced in
// each column, pinning the column's worker count with taskset (perfbench
// sizes its runtime from the CPUs it may run on), and writes the file only
// if every run exited 0 with no failed operation. check reruns the
// end-to-end passes of every committed column the host can run and compares
// each end-to-end metric's median with the committed runs under the metric's
// bound and direction from BENCHMARK.json (see compare). It prints one row
// per metric and never writes the file. The workloads, seconds and bounds
// come from BENCHMARK.json; the seed and the runs per cell are constants.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

const (
	benchmarkFile  = "BENCHMARK.json"
	trajectoryFile = "BENCH_trajectory.json"
	seed           = 7919 // perfbench's held-out seed
	runsPerCell    = 3    // odd, so each median is one measured run
)

// benchmark is the part of BENCHMARK.json this command reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // allowed relative loss (end-to-end metrics)
}

// result is the JSON line a perfbench run ends with.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// trajectory is BENCH_trajectory.json: the run record and one column per
// worker count.
type trajectory struct {
	Commit      string         `json:"commit"`
	Seed        int            `json:"seed"`
	RunSeconds  float64        `json:"run_seconds"`
	RunsPerCell int            `json:"runs_per_cell"`
	Columns     map[int]column `json:"columns"` // by worker count
}

type column struct {
	Host  string          `json:"host"`  // perfbench's host: line
	Cells map[string]cell `json:"cells"` // by workload
}

// cell is one workload in one column. Attempted and Failed sum its runs.
// Layers holds one traced run's per-layer values; a metric that run could
// not measure is null.
type cell struct {
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]summary  `json:"end_to_end"`
	Layers    map[string]*float64 `json:"layers,omitempty"`
	Err       string              `json:"-"` // a run that exited non-zero
}

type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func main() {
	if len(os.Args) != 2 || (os.Args[1] != "write" && os.Args[1] != "check") {
		fmt.Fprintln(os.Stderr, "usage: benchtraj write|check")
		os.Exit(2)
	}
	run := write
	if os.Args[1] == "check" {
		run = check
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(1)
	}
}

func write() error {
	var bm benchmark
	if err := readJSON(benchmarkFile, &bm); err != nil {
		return err
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	traj := trajectory{Commit: commit("."), Seed: seed, RunSeconds: bm.RunSeconds,
		RunsPerCell: runsPerCell, Columns: map[int]column{}}
	for _, w := range slices.Compact([]int{1, len(cpus)}) {
		cells, host := measure(bm, cpus[:w])
		for _, wl := range bm.Workloads {
			c := cells[wl.Name]
			if c.Err == "" {
				tr, _, err := runOnce(bm, wl.Name, cpus[:w], "1")
				if err != nil {
					c.Err = err.Error()
				}
				c.Attempted += tr.Attempted
				c.Failed += tr.Failed
				c.Layers = map[string]*float64{}
				for _, m := range bm.PerLayer {
					c.Layers[m.Name] = nil
				}
				for name, v := range tr.Metrics {
					c.Layers[name] = &v.Value
				}
			}
			if c.Err != "" {
				return fmt.Errorf("%s at %d workers: %s; %s not written", wl.Name, w, c.Err, trajectoryFile)
			}
			if c.Failed > 0 {
				return fmt.Errorf("%s at %d workers: %d of %d operations failed; %s not written",
					wl.Name, w, c.Failed, c.Attempted, trajectoryFile)
			}
			cells[wl.Name] = c
		}
		traj.Columns[w] = column{Host: host, Cells: cells}
	}
	b, err := json.MarshalIndent(traj, "", "  ")
	if err == nil {
		err = os.WriteFile(trajectoryFile, append(b, '\n'), 0o644)
	}
	if err == nil {
		fmt.Printf("wrote %s (commit %s)\n", trajectoryFile, traj.Commit)
	}
	return err
}

func check() error {
	var bm benchmark
	var committed trajectory
	if err := readJSON(benchmarkFile, &bm); err != nil {
		return err
	}
	if err := readJSON(trajectoryFile, &committed); err != nil {
		return err
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	var workloads []string
	for _, wl := range bm.Workloads {
		workloads = append(workloads, wl.Name)
	}
	measured := map[int]column{}
	for _, w := range slices.Sorted(maps.Keys(committed.Columns)) {
		if w <= len(cpus) {
			cells, _ := measure(bm, cpus[:w])
			measured[w] = column{Cells: cells}
		}
	}
	rows, failures := compare(bm.EndToEnd, workloads, committed, measured)
	fmt.Printf("%s (commit %s, seed %d, %g s, median of %d runs) against commit %s\n",
		trajectoryFile, committed.Commit, committed.Seed, committed.RunSeconds, committed.RunsPerCell, commit("."))
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\tworkload\tmetric\tcommitted\tmeasured\tlimit\tverdict")
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, f := range failures {
		fmt.Println("FAIL", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failures against %s", len(failures), trajectoryFile)
	}
	fmt.Println("bench-check: no metric past its limit and no failed operation in the columns that ran")
	return nil
}

// compare checks measured columns against the committed trajectory. A
// committed column missing from measured is one the host could not run: its
// row reads skipped. Every other column must hold every workload, each
// without failed operations or a failed run, and each end-to-end metric's
// median no worse than the committed worst run by more than the bound: at
// least (1-bound) times the committed min when higher is better, at most
// (1+bound) times the committed max when lower is. The worst run, not the
// median, anchors the limit because some metrics spread past the bound
// between runs of one commit, and a value the committed code produced is no
// regression. It returns the table rows (workers, workload, metric,
// committed median, measured median, limit, verdict) and one message per
// failure.
func compare(specs []metricSpec, workloads []string, committed trajectory, measured map[int]column) (rows [][]string, failures []string) {
	for _, w := range slices.Sorted(maps.Keys(committed.Columns)) {
		ws := strconv.Itoa(w)
		got, ran := measured[w]
		if !ran {
			rows = append(rows, []string{ws, "-", "-", "-", "-", "-", "skipped: host has fewer CPUs"})
			continue
		}
		for _, wl := range workloads {
			fail := func(format string, args ...any) {
				failures = append(failures, fmt.Sprintf("%s at %d workers: ", wl, w)+fmt.Sprintf(format, args...))
			}
			base, inFile := committed.Columns[w].Cells[wl]
			now := got.Cells[wl]
			switch {
			case !inFile:
				fail("not in %s; rerun make bench", trajectoryFile)
				continue
			case now.Err != "":
				fail("run failed: %s", now.Err)
				continue
			case now.Failed > 0:
				fail("%d of %d operations failed", now.Failed, now.Attempted)
			}
			for _, m := range specs {
				b, okB := base.EndToEnd[m.Name]
				v, okV := now.EndToEnd[m.Name]
				if !okB || !okV {
					fail("%s missing (committed %v, measured %v)", m.Name, okB, okV)
					continue
				}
				rel, limit := ">=", b.Min*(1-m.Bound)
				worse := v.Median < limit
				if m.Better == "lower" {
					rel, limit = "<=", b.Max*(1+m.Bound)
					worse = v.Median > limit
				}
				verdict := "ok"
				if worse {
					verdict = "FAIL"
					fail("%s %.4g %s, committed %.4g (%.4g-%.4g), limit %s %.4g", m.Name, v.Median, m.Unit, b.Median, b.Min, b.Max, rel, limit)
				}
				rows = append(rows, []string{ws, wl, m.Name, fmt.Sprintf("%.4g", b.Median),
					fmt.Sprintf("%.4g", v.Median), fmt.Sprintf("%s %.4g", rel, limit), verdict})
			}
		}
	}
	return rows, failures
}

// measure runs every workload runsPerCell times end to end on the given
// CPUs, one run of each workload per round, so a stretch of host noise
// touches one run of several cells rather than several runs of one. It
// returns the cells by workload and perfbench's host line. A run that exits
// non-zero without reporting failed operations ends its cell's runs and is
// recorded in Err.
func measure(bm benchmark, cpus []string) (map[string]cell, string) {
	cells := map[string]cell{}
	values := map[[2]string][]float64{} // by workload and metric
	var host string
	for i := 0; i < runsPerCell; i++ {
		for _, wl := range bm.Workloads {
			c := cells[wl.Name]
			if c.Err != "" {
				continue
			}
			res, h, err := runOnce(bm, wl.Name, cpus, "0")
			if err != nil {
				c.Err = err.Error()
			} else {
				host = h
				c.Attempted += res.Attempted
				c.Failed += res.Failed
				for name, v := range res.Metrics {
					values[[2]string{wl.Name, name}] = append(values[[2]string{wl.Name, name}], v.Value)
				}
			}
			cells[wl.Name] = c
		}
	}
	for k, vs := range values {
		slices.Sort(vs)
		c := cells[k[0]]
		if c.EndToEnd == nil {
			c.EndToEnd = map[string]summary{}
		}
		c.EndToEnd[k[1]] = summary{Median: vs[len(vs)/2], Min: vs[0], Max: vs[len(vs)-1]}
		cells[k[0]] = c
	}
	return cells, host
}

// runOnce runs perfbench once pinned to cpus, with --trace trace ("0" or
// "1"), and returns its result and its host: line. perfbench exits 1 exactly when operations failed; that result
// is returned without an error so the caller sees the failed count.
func runOnce(bm benchmark, workload string, cpus []string, trace string) (result, string, error) {
	args := append([]string{"-c", strings.Join(cpus, ",")}, bm.Command...)
	cmd := exec.Command("taskset", append(args, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(bm.RunSeconds, 'g', -1, 64), "--trace", trace)...)
	// The worker count is the column's CPU count, not an inherited setting.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	runErr := cmd.Run()
	fmt.Fprintf(os.Stderr, "benchtraj: %s workers=%d trace=%s: %.1f s\n", workload, len(cpus), trace, time.Since(start).Seconds())

	var res result
	var host string
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines {
		if h, ok := strings.CutPrefix(l, "host: "); ok {
			host = h
		}
	}
	parseErr := json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	switch {
	case runErr != nil && (parseErr != nil || res.Failed == 0):
		errLines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		return res, host, fmt.Errorf("%s: %v: %s", strings.Join(cmd.Args, " "), runErr,
			strings.Join(errLines[max(0, len(errLines)-5):], " | "))
	case parseErr != nil:
		return res, host, fmt.Errorf("%s: no result line: %v", strings.Join(cmd.Args, " "), parseErr)
	case !strings.Contains(host, fmt.Sprintf(" workers=%d ", len(cpus))):
		return res, host, fmt.Errorf("pinned to %d CPUs but perfbench reported %q", len(cpus), host)
	}
	return res, host, nil
}

// allowedCPUs lists the CPUs this process may run on, from its affinity
// mask as Linux reports it, e.g. "Cpus_allowed_list:	0-3,6".
func allowedCPUs() ([]string, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, err
	}
	_, list, ok := strings.Cut(string(b), "Cpus_allowed_list:")
	if !ok {
		return nil, errors.New("no Cpus_allowed_list in /proc/self/status")
	}
	list, _, _ = strings.Cut(strings.TrimSpace(list), "\n")
	var cpus []string
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		if !isRange {
			hi = lo
		}
		a, errA := strconv.Atoi(lo)
		b, errB := strconv.Atoi(hi)
		if errA != nil || errB != nil || a > b {
			return nil, fmt.Errorf("bad Cpus_allowed_list %q", list)
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, strconv.Itoa(c))
		}
	}
	return cpus, nil
}

// commit names the tree in the repository at dir: the checked-out commit,
// followed by -dirty-tree- and 12 hex digits of the work tree's hash when
// that differs from the commit's tree. The work tree is what a commit of
// every change and every file .gitignore does not exclude would record, so
// a new untracked file makes the name dirty too. It is taken through a
// temporary index and a temporary object directory, so neither the real
// index nor the object store changes.
func commit(dir string) string {
	name, err := git(dir, nil, "describe", "--always", "--abbrev=12")
	if err != nil {
		return "unknown"
	}
	tree, err := worktreeTree(dir)
	if err != nil || len(tree) < 12 {
		return name + "-tree-unknown"
	}
	if head, err := git(dir, nil, "rev-parse", "HEAD^{tree}"); err != nil || head != tree {
		name += "-dirty-tree-" + tree[:12]
	}
	return name
}

// worktreeTree returns the hash of dir's work tree: HEAD's tree read into
// a temporary index, then git add -A and git write-tree there. The objects
// these write go to a temporary directory, with the repository's own
// object store as an alternate to read HEAD from.
func worktreeTree(dir string) (string, error) {
	objects, err := git(dir, nil, "rev-parse", "--git-path", "objects")
	if err != nil {
		return "", err
	}
	if !filepath.IsAbs(objects) {
		objects = filepath.Join(dir, objects)
	}
	tmp, err := os.MkdirTemp("", "benchtraj-index-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	env := []string{
		"GIT_INDEX_FILE=" + filepath.Join(tmp, "index"),
		"GIT_OBJECT_DIRECTORY=" + tmp,
		"GIT_ALTERNATE_OBJECT_DIRECTORIES=" + objects,
	}
	for _, args := range [][]string{{"read-tree", "HEAD"}, {"add", "-A"}} {
		if _, err := git(dir, env, args...); err != nil {
			return "", err
		}
	}
	return git(dir, env, "write-tree")
}

// git runs one git command in dir with env added to the environment and
// returns its trimmed standard output.
func git(dir string, env []string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}
