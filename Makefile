GO ?= go

.PHONY: all check fmt vet build test race examples loc bench-steady bench bench-stats bench-paper

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
## the root package and in internal/dist
GO_FILES = find . \( -path './.*' -o -path ./perfbench \) -prune -o -name '*.go'
EXPORTED = grep -h '^func \(([^)]*) \)\?[A-Z]'
loc:
	@echo "non-test Go lines:                    $$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines:                        $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "exported funcs/methods, root:         $$(ls *.go | grep -v '_test\.go$$' | xargs $(EXPORTED) | wc -l)"
	@echo "exported funcs/methods, internal/dist: $$(ls internal/dist/*.go | grep -v '_test\.go$$' | xargs $(EXPORTED) | wc -l)"

## bench-steady: steady-state allocation benchmark (see EXPERIMENTS.md)
bench-steady:
	$(GO) test -bench SortEqSteadyState -benchtime 20x -run ^$$ .

## bench: steady-state suite at n=10^7 -> BENCH_steady.json (the perf
## trajectory each PR appends to; see EXPERIMENTS.md). Fails if any cell
## regresses more than 25% against the committed trajectory, so `make
## bench` doubles as the perf smoke gate (the baseline is read before the
## file is rewritten).
bench:
	$(GO) run ./cmd/semibench -json BENCH_steady.json -compare BENCH_steady.json -n 10000000
	$(GO) run ./cmd/semibench -stats -n 1000000 -out BENCH_stats.txt

## bench-stats: per-cell engine counters (levels, volumes, hash/probe/eq)
## at the full trajectory size — the qualitative companion to `make bench`
bench-stats:
	$(GO) run ./cmd/semibench -stats -n 10000000

## bench-paper: representative cells of every table/figure
bench-paper:
	$(GO) test -bench . -benchtime 1x -run ^$$ .
