GO ?= go

.PHONY: all check fmt vet build test race examples loc bench-steady bench bench-check bench-paper

all: check

## check: everything CI runs — format, vet, build, test, short race pass
check: fmt vet build test race

## fmt: fail if any file is not gofmt-formatted
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race-detector pass on the runtime, the semisort core, sampling +
## distribution, the collect-reduce + relational terminal ops, the arena
## key plane, the streaming front end, and the stats plane.
## internal/chaos is the fault-injection harness: panics and cancels on
## shared runtimes from many goroutines — exactly the interleavings the
## race detector exists for. internal/stream adds the batcher's
## producer/flusher/Close interleavings. internal/strkey covers the arena
## key plane's parallel Build and pooled-buffer recycling. internal/obs
## covers the counter-shard sink's concurrent flushers and the registry's
## concurrent snapshots. The root package rides along for the call-guard,
## pipeline, and streaming-state fault paths.
race:
	$(GO) test -race ./internal/parallel ./internal/core ./internal/sampling ./internal/dist ./internal/collect ./internal/rel ./internal/strkey ./internal/chaos ./internal/stream ./internal/obs .

## examples: build and run every example. Each one checks its own result
## and panics on a mismatch, so a wrong answer fails the target.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

## loc: the size numbers every PR reports — non-test and test Go lines
## (perfbench/ and dot-directories excluded) and exported funcs/methods in
## the root package, internal/dist, internal/core and internal/parallel
GO_FILES = find . \( -path './.*' -o -path ./perfbench \) -prune -o -name '*.go'
EXPORTED = grep -h '^func \(([^)]*) \)\?[A-Z]'
exported = ls $(1) | grep -v '_test\.go$$' | xargs $(EXPORTED) | wc -l
loc:
	@echo "non-test Go lines:                         $$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines:                             $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "exported funcs/methods, root:              $$($(call exported,*.go))"
	@echo "exported funcs/methods, internal/dist:     $$($(call exported,internal/dist/*.go))"
	@echo "exported funcs/methods, internal/core:     $$($(call exported,internal/core/*.go))"
	@echo "exported funcs/methods, internal/parallel: $$($(call exported,internal/parallel/*.go))"

## bench-steady: steady-state allocation benchmark (see EXPERIMENTS.md)
bench-steady:
	$(GO) test -bench SortEqSteadyState -benchtime 20x -run ^$$ .

## bench: run perfbench (BENCHMARK.json's workloads, seed 7919) at 1 worker
## and at nproc workers, each end to end three times and traced once, and
## write BENCH_trajectory.json, the committed perf trajectory. Writes
## nothing if any run fails. About 13 minutes on a 2-CPU host.
bench:
	$(GO) run ./cmd/benchtraj write

## bench-check: rerun the end-to-end passes and compare each metric with
## BENCH_trajectory.json under BENCHMARK.json's bounds; fails on a metric
## worse than the committed worst run by more than its bound, or on a
## failed operation. Never writes the file. About 9 minutes.
bench-check:
	$(GO) run ./cmd/benchtraj check

## bench-paper: representative cells of every table/figure
bench-paper:
	$(GO) test -bench . -benchtime 1x -run ^$$ .
