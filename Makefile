GO  ?= go
BIN ?= bin

.PHONY: build test race e2e crash-drill bench-smoke bench-compare clean

# build compiles every package and drops the binaries (treecached
# daemon, treesim replayer/driver, experiments harness) into $(BIN).
build:
	$(GO) build ./...
	mkdir -p $(BIN)
	$(GO) build -o $(BIN)/ ./cmd/treecached ./cmd/treesim ./cmd/experiments

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# e2e runs the binary-level SIGTERM-restart parity drill: boot
# treecached with a state dir, replay half a workload over loopback
# TCP, drain on SIGTERM, restart from the checkpoint, replay the rest,
# and verify the cumulative served-cost ledger matches an
# uninterrupted local run (see scripts/e2e_drill.sh).
e2e: build
	scripts/e2e_drill.sh $(BIN)

# crash-drill runs the binary-level kill -9 drill: boot treecached
# with the write-ahead log on, SIGKILL it at three random points while
# treesim streams a workload, and verify every acknowledged batch
# survives recovery with the ledger matching an uninterrupted run cost
# for cost (see scripts/crash_drill.sh).
crash-drill: build
	scripts/crash_drill.sh $(BIN)

# bench-smoke runs every row of the benchmark table (experiments.Benches)
# at a fixed small iteration count, at -cpu 1,2, so the bench code
# cannot rot; real perf deltas come from
# `experiments -bench-compare old.json new.json`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTC|BenchmarkEngine|BenchmarkDaemon|BenchmarkCheckpoint' -benchtime 100x -benchmem -cpu 1,2 .

# bench-compare gates a perf PR mechanically: record OLD=... from the
# base commit and NEW=... from the candidate (both via
# `experiments -bench-json file.json`), then compare with the shared
# ±30% container-drift tolerance. Exits non-zero on regressions.
OLD ?= BENCH_core.json
NEW ?= bench_new.json
bench-compare:
	$(GO) run ./cmd/experiments -bench-compare -bench-tolerance 0.3 $(OLD) $(NEW)

clean:
	rm -rf $(BIN)
