# Convenience targets; everything also works with plain go commands.

.PHONY: build test lines race race-par bench bench-quick bench-smoke sweep phase-tables trace-check contend-smoke soak loadgen-smoke tpcc-aging tpcc-mv-smoke fuzz-smoke old-spellings

build:
	go build ./...

test:
	go test ./...

# ROADMAP aim 2's measure, per package and for the root module: non-test .go
# lines, comments and blanks included (benchmark/ is a module of its own and is
# not counted). CI prints it after Build, so a PR that says "net negative in
# core" is read, not asserted.
lines:
	@for d in $$(find cmd internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%7d  root module\n' $$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)

# The race lane, here and in CI (ci.yml runs this target, so there is one
# package list): -short trims property-check sample counts.
race:
	go test -race -short ./internal/obs ./internal/bench ./internal/pmem ./internal/index ./internal/core ./internal/wal

# Worker-parallel race lane: the same engine/simulation packages plus the
# crash-consistency oracle, with GOMAXPROCS=4 so the group scheduler's round
# barriers, per-worker timing partitions, and the free-running spin-locked
# paths actually interleave across cores under the race detector. The index
# and TPC-C packages are here for the B-tree's lock-free readers: what they
# load beside a writer (root, nextFree, the sequence word) must be atomic.
# -count=1 because GOMAXPROCS is not part of Go's test-cache key: right after
# `make race` the shared packages would otherwise report (cached).
race-par:
	GOMAXPROCS=4 go test -race -short -count=1 ./internal/crashtest ./internal/core ./internal/pmem ./internal/bench ./internal/index ./internal/workload/tpcc

# Append a full host-performance run (micro ops, one YCSB cell, the default
# Figure-11 grid) to BENCH_hostperf.json. Speedups are against the first
# (baseline) run, the -check gate against the best comparable one; see README
# "Tracking host performance".
bench:
	go run ./cmd/falcon hostbench -label "$(shell git rev-parse --short HEAD)"

# Grid-free variant for quick checks (~10 s).
bench-quick:
	go run ./cmd/falcon hostbench -quick -label "$(shell git rev-parse --short HEAD)-quick"

# The benchmark's own smoke tests (BENCHMARK.json's program at reduced scale:
# every workload end to end, its checks, the metric tables). benchmark/ is a
# module of its own, so `go test ./...` at the root does not reach it.
bench-smoke:
	cd benchmark && go test ./...

# TPC-C on an old database (under a minute): a Delivery call must cost the
# same virtual time after 30 000 calls as at the start, and the run the orders
# B-tree of the out-of-place presets once filled in, leaving committed rows
# out of the index ("Delivery: core: key not found" at txn ~12 300), must end
# on every preset either complete or with "table full". The awk, not the exit
# status, is the verdict: a failed cell exits 1, and "table full" is this
# run's accepted ending.
tpcc-aging:
	go test -count=1 -run 'TestDeliveryCostDoesNotAge' ./internal/workload/tpcc
	go test -count=1 -run 'TestTPCCRunsUntilTheHeapIsFull' ./internal/bench
	go run ./cmd/falcon tpcc -threads 2 -warehouses 2 -cc OCC -txns 13000 2>&1 | tee /dev/stderr | \
		awk '/worker [0-9]+ txn/ && !/table full/ { bad = 1 } END { exit bad }'

# Four free-running TPC-C workers under each multi-version algorithm, every
# preset (~12 s per algorithm). While Scan held the B-tree's lock across its
# callbacks this hung on the Outp row in two runs of three: a snapshot read
# spun for a writer that was queued on the same tree's lock.
tpcc-mv-smoke:
	for cc in MV2PL MVTO MVOCC; do \
		timeout 120 go run ./cmd/falcon tpcc -cc $$cc -threads 4 -warehouses 2 -txns 3000 -warmup 200 || exit 1; \
	done

# Ten seconds of native fuzzing per target, on top of the checked-in corpora
# that every `go test` run replays (same lane CI runs).
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzBTreeOps -fuzztime 10s ./internal/index
	go test -run '^$$' -fuzz FuzzHashOps -fuzztime 10s ./internal/index
	go test -run '^$$' -fuzz FuzzXPIndex -fuzztime 10s ./internal/pmem
	go test -run '^$$' -fuzz FuzzParseRequest -fuzztime 10s ./internal/server

sweep:
	go run ./cmd/falcon sweep

# Regenerate the generated sections of EXPERIMENTS.md (marker-delimited;
# hand-written text survives) from a fresh Figure-11 sweep: the phase-share
# tables of the per-commit baseline grid and the hot-key heat tables, then the
# same grid through leader-based group commit (its own marker section, so the
# two render side by side for the log+flush comparison).
phase-tables:
	go run ./cmd/falcon sweep -md EXPERIMENTS.md
	go run ./cmd/falcon sweep -md EXPERIMENTS.md -groupcommit

# Server soak: the serving layer (admission, deadlines, idempotent replay,
# drain, sixteen connections on two engine-worker slots) and every loadgen
# scenario — including overload at 2x the saturation knee and the retry storm —
# under the race detector against in-process servers (same lane CI runs).
soak:
	go test -race ./internal/server/... ./internal/loadgen

# End-to-end serving smoke: boot `falcon serve`, drive one closed-loop loadgen
# round, check the falcon/loadgen/v1 report stamp and /metrics exposition,
# then SIGTERM-drain (same lane CI runs).
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# Produce a tiny trace and validate it against the Chrome trace-event schema
# (same lane CI runs).
trace-check:
	go run ./cmd/falcon ycsb -threads 2 -records 2000 -txns 50 -warmup 10 -workloads A -trace /tmp/falcon-trace.json
	go run ./cmd/falcon tracecheck /tmp/falcon-trace.json

# The contention observatory and the probe that feeds it under the race
# detector (planted hot key, group-mode determinism, one event to each
# consumer once, the exposition), then a -contend -prom run that must leave a
# non-empty scrape file (same lane CI runs).
contend-smoke:
	go test -race -short -run 'TestContend|TestConcurrentMerge|TestReportShape|TestProbe|TestAbortCounts|TestNilProbe|TestEveryEvent|TestWritePrometheus|TestPrometheus|TestSchema|TestStreamLine|TestObsSnapshot' ./internal/core ./internal/obs ./internal/bench
	go run ./cmd/falcon ycsb -threads 2 -records 2000 -txns 50 -warmup 10 -workloads A -contend -prom /tmp/falcon-metrics.prom
	test -s /tmp/falcon-metrics.prom

# The nine per-tool binaries were folded into `falcon <subcommand>`; fail when
# a removed spelling comes back (same lane CI runs). CHANGES.md, ROADMAP.md,
# benchmark/ and EXPERIMENTS.md's dated sections are history and exempt. The
# [-] keeps this recipe from matching itself.
old-spellings:
	! grep -rnE 'cmd/falcon[-]|falcon[-](micro|tpcc|ycsb|sweep|recovery|hostbench|serve|loadgen|tracecheck)\b' \
		Makefile .github scripts README.md DESIGN.md .claude cmd internal *.go
