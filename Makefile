GO  ?= go
BIN ?= bin

.PHONY: build test race bench-smoke bench-compare clean

# build compiles every package and drops the binaries (treecached
# daemon, treesim replayer/driver, experiments harness) into $(BIN).
build:
	$(GO) build ./...
	mkdir -p $(BIN)
	$(GO) build -o $(BIN)/ ./cmd/treecached ./cmd/treesim ./cmd/experiments

# test includes the binary-level drills: cmd/treecached's tests re-exec
# the test binary as treecached and SIGTERM and SIGKILL it.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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
