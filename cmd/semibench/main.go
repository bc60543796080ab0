// Command semibench regenerates the tables and figures of the paper's
// evaluation (Section 5 and appendix). Each experiment prints the same rows
// or series the paper reports, at a configurable input size.
//
// Usage:
//
//	semibench -list
//	semibench -exp table3 -n 10000000
//	semibench -exp table3,fig3a,table4 -n 5000000 -rounds 3
//	semibench -exp all -out results.txt
//
// The repository's performance trajectory is perfbench's, not this
// command's: see `make bench`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		expFlag     = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		listFlag    = flag.Bool("list", false, "list available experiments and exit")
		nFlag       = flag.Int("n", 10_000_000, "input size in records (paper: 10^9)")
		roundsFlag  = flag.Int("rounds", 4, "timed runs per measurement (median of last rounds-1)")
		seedFlag    = flag.Uint64("seed", 42, "workload generation seed")
		threadsFlag = flag.String("threads", "", "comma-separated thread counts for scaling experiments")
		outFlag     = flag.String("out", "", "write results to this file instead of stdout")
	)
	flag.Parse()

	if *listFlag {
		bench.List(os.Stdout)
		return
	}
	if *expFlag == "" {
		fmt.Fprintln(os.Stderr, "semibench: use -exp <ids> or -list; e.g. -exp table3")
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "semibench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	opts := bench.Options{N: *nFlag, Rounds: *roundsFlag, Seed: *seedFlag}
	if *threadsFlag != "" {
		for _, part := range strings.Split(*threadsFlag, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || t < 1 {
				fmt.Fprintf(os.Stderr, "semibench: bad -threads entry %q\n", part)
				os.Exit(2)
			}
			opts.Threads = append(opts.Threads, t)
		}
	}

	ids := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		ids = nil
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "semibench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Fprintf(w, "==== %s: %s ====\n\n", e.ID, e.Paper)
		start := time.Now()
		e.Run(w, opts)
		fmt.Fprintf(w, "\n[%s finished in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
	}
}
