package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var testSpecs = []metricSpec{
	{Name: "sort_mrecs", Unit: "Mrec/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_bytes_per_rec", Unit: "B/rec", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// committedCell is the committed value of every test metric: three runs of
// 100 of its unit.
func committedCell() cell {
	c := cell{Attempted: 10, EndToEnd: map[string]summary{}}
	for _, m := range testSpecs {
		c.EndToEnd[m.Name] = summary{Median: 100, Min: 100, Max: 100}
	}
	return c
}

// measuredCell is committedCell with some medians replaced.
func measuredCell(medians map[string]float64) cell {
	c := committedCell()
	for name, v := range medians {
		c.EndToEnd[name] = summary{Median: v, Min: v, Max: v}
	}
	return c
}

func trajectoryOf(cols map[int]cell) trajectory {
	t := trajectory{Columns: map[int]column{}}
	for w, c := range cols {
		t.Columns[w] = column{Cells: map[string]cell{"u64-zipf": c}}
	}
	return t
}

func runCompare(t *testing.T, committed trajectory, measured map[int]cell) ([][]string, []string) {
	t.Helper()
	m := map[int]column{}
	for w, c := range measured {
		m[w] = column{Cells: map[string]cell{"u64-zipf": c}}
	}
	return compare(testSpecs, []string{"u64-zipf"}, committed, m)
}

func TestCompare(t *testing.T) {
	// Committed runs that spread: the limits move with the worst run, to
	// 45 for sort_mrecs and to 175 for setup_s.
	spread := committedCell()
	spread.EndToEnd["sort_mrecs"] = summary{Median: 100, Min: 60, Max: 110}
	spread.EndToEnd["setup_s"] = summary{Median: 100, Min: 90, Max: 140}
	for _, tc := range []struct {
		name      string
		committed cell
		medians   map[string]float64
		failing   []string // metrics that must fail
	}{
		{"unchanged", committedCell(), nil, nil},
		{"within bounds", committedCell(), map[string]float64{"sort_mrecs": 76, "alloc_bytes_per_rec": 124,
			"peak_rss_mb": 124, "setup_s": 124}, nil},
		{"better in both directions", committedCell(), map[string]float64{"sort_mrecs": 300, "alloc_bytes_per_rec": 10,
			"peak_rss_mb": 10, "setup_s": 10}, nil},
		{"higher-is-better metric past its bound", committedCell(), map[string]float64{"sort_mrecs": 74}, []string{"sort_mrecs"}},
		{"lower-is-better metrics past their bound", committedCell(), map[string]float64{"alloc_bytes_per_rec": 126,
			"peak_rss_mb": 126, "setup_s": 126}, []string{"alloc_bytes_per_rec", "peak_rss_mb", "setup_s"}},
		{"within the bound of the committed worst run", spread,
			map[string]float64{"sort_mrecs": 46, "setup_s": 174}, nil},
		{"past the bound of the committed worst run", spread,
			map[string]float64{"sort_mrecs": 44, "setup_s": 176}, []string{"sort_mrecs", "setup_s"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			committed := trajectoryOf(map[int]cell{1: committedCell(), 2: tc.committed})
			rows, failures := runCompare(t, committed, map[int]cell{1: committedCell(), 2: measuredCell(tc.medians)})
			if len(rows) != 2*len(testSpecs) {
				t.Fatalf("%d rows, want %d: %v", len(rows), 2*len(testSpecs), rows)
			}
			if len(failures) != len(tc.failing) {
				t.Fatalf("failures %q, want one for each of %v", failures, tc.failing)
			}
			for i, metric := range tc.failing {
				f := failures[i]
				if !strings.Contains(f, "u64-zipf") || !strings.Contains(f, "at 2 workers") || !strings.Contains(f, metric) {
					t.Errorf("failure %q does not name the workload, the worker count and %s", f, metric)
				}
			}
			for _, r := range rows {
				want := "ok"
				if r[0] == "2" && slices.Contains(tc.failing, r[2]) {
					want = "FAIL"
				}
				if r[6] != want {
					t.Errorf("row %v: verdict %q, want %q", r, r[6], want)
				}
			}
		})
	}
}

func TestCompareSkipsColumnTheHostLacks(t *testing.T) {
	committed := trajectoryOf(map[int]cell{1: committedCell(), 2: committedCell()})
	rows, failures := runCompare(t, committed, map[int]cell{1: committedCell()})
	if len(failures) != 0 {
		t.Fatalf("failures %q, want none", failures)
	}
	var skipped int
	for _, r := range rows {
		if r[0] == "2" {
			if !strings.HasPrefix(r[6], "skipped") {
				t.Errorf("row %v of the column the host lacks reads %q, want skipped", r, r[6])
			}
			skipped++
		}
	}
	if skipped != 1 {
		t.Errorf("%d rows for the missing column, want one skipped row: %v", skipped, rows)
	}
}

func TestCompareFailsFailedOperationsAndRuns(t *testing.T) {
	committed := trajectoryOf(map[int]cell{2: committedCell()})
	failedOps := committedCell()
	failedOps.Failed = 3
	failedRun := cell{Err: "exit status 2"}
	for name, c := range map[string]cell{"failed operations": failedOps, "failed run": failedRun} {
		_, failures := runCompare(t, committed, map[int]cell{2: c})
		if len(failures) != 1 || !strings.Contains(failures[0], "u64-zipf at 2 workers") {
			t.Errorf("%s: failures %q, want one naming the cell", name, failures)
		}
	}
}

// TestCommitNamesDirtyTree: a clean checkout is named by its commit; a
// dirty one also by the hash of the tree a commit of every change would
// record, which is checked by then making that commit. A new untracked file
// alone makes the tree dirty; an ignored one does not. Naming the tree must
// leave the real index and the object store as they were.
func TestCommitNamesDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	run := func(args ...string) string {
		t.Helper()
		args = append([]string{"-c", "user.name=bench", "-c", "user.email=bench@example.org"}, args...)
		out, err := git(dir, nil, args...)
		if err != nil {
			t.Fatalf("git %v: %v", args, err)
		}
		return out
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run("init", "-q")
	write("a.txt", "one\n")
	write(".gitignore", "ignored.txt\n")
	run("add", "-A")
	run("commit", "-qm", "one")

	for _, step := range []struct {
		name  string
		files map[string]string
	}{
		{"untracked only", map[string]string{"b.txt": "new\n"}},
		{"tracked and untracked", map[string]string{"a.txt": "two\n", "c.txt": "new\n", "ignored.txt": "not measured\n"}},
	} {
		head := run("rev-parse", "--short=12", "HEAD")
		if got := commit(dir); got != head {
			t.Fatalf("%s: clean tree named %q, want %q", step.name, got, head)
		}
		for name, body := range step.files {
			write(name, body)
		}
		objects := run("count-objects", "-v")
		got := commit(dir)
		if staged := run("diff", "--cached", "--name-only"); staged != "" {
			t.Fatalf("%s: naming the tree staged %q in the real index", step.name, staged)
		}
		if after := run("count-objects", "-v"); after != objects {
			t.Fatalf("%s: naming the tree changed the object store from\n%s\nto\n%s", step.name, objects, after)
		}
		run("add", "-A")
		run("commit", "-qm", step.name)
		if want := head + "-dirty-tree-" + run("rev-parse", "HEAD^{tree}")[:12]; got != want {
			t.Fatalf("%s: dirty tree named %q, want %q", step.name, got, want)
		}
	}
	if got, want := commit(dir), run("rev-parse", "--short=12", "HEAD"); got != want {
		t.Fatalf("tree with only an ignored file changed named %q, want %q", got, want)
	}
}
