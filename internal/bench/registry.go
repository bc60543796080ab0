package bench

import (
	"fmt"
	"io"
)

// Experiment is one regenerable table or figure of the paper.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it regenerates
	Run   func(w io.Writer, o Options)
}

// Experiments returns every experiment, keyed and ordered by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "table3", Paper: "Table 3 + Figure 1 (64-bit heatmap)", Run: RunTable3},
		{ID: "fig5", Paper: "Figure 5 (32-bit heatmap)", Run: RunHeatmap32},
		{ID: "fig6", Paper: "Figure 6 (128-bit heatmap)", Run: RunHeatmap128},
		{ID: "fig3a", Paper: "Figure 3a (self-speedup, Zipfian-1.2)",
			Run: func(w io.Writer, o Options) { RunSpeedup(w, o, false) }},
		{ID: "fig7-12", Paper: "Figures 7-12 (self-speedup, all distributions)",
			Run: func(w io.Writer, o Options) { RunSpeedup(w, o, true) }},
		{ID: "fig3b", Paper: "Figure 3b (size scaling, Zipfian-1.2)",
			Run: func(w io.Writer, o Options) { RunSizes(w, o, false) }},
		{ID: "fig13-18", Paper: "Figures 13-18 (size scaling, all distributions)",
			Run: func(w io.Writer, o Options) { RunSizes(w, o, true) }},
		{ID: "fig4", Paper: "Figure 4 (key lengths, Zipfian-1.2)",
			Run: func(w io.Writer, o Options) { RunKeyLengths(w, o, false) }},
		{ID: "fig19-24", Paper: "Figures 19-24 (key lengths, all distributions)",
			Run: func(w io.Writer, o Options) { RunKeyLengths(w, o, true) }},
		{ID: "fig3c", Paper: "Figure 3c (collect-reduce, Zipfian)",
			Run: func(w io.Writer, o Options) { RunCollectReduce(w, o, false) }},
		{ID: "fig25-27", Paper: "Figures 25-27 (collect-reduce, all distributions)",
			Run: func(w io.Writer, o Options) { RunCollectReduce(w, o, true) }},
		{ID: "table4", Paper: "Table 4 (graph transposing)", Run: RunTable4},
		{ID: "table5", Paper: "Table 5 (n-gram grouping)", Run: RunTable5},
		{ID: "ablation", Paper: "Section 3.6/4.1 design-choice ablations", Run: RunAblation},
		{ID: "rel", Paper: "relational ops (dedup/join/count-distinct/top-k) vs naive Go maps", Run: RunRel},
		{ID: "strkeys", Paper: "string-key engine A/B: generic K=string vs the arena key plane", Run: RunStrKeys},
	}
	return exps
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// List writes the experiment index.
func List(w io.Writer) {
	t := NewTable("id", "regenerates")
	for _, e := range Experiments() {
		t.Add(e.ID, e.Paper)
	}
	t.Print(w)
	fmt.Fprintln(w)
}
