# Convenience targets; everything also works with plain go commands.

.PHONY: build test lines race race-par bench bench-smoke sweep phase-tables trace-check contend-smoke soak loadgen-smoke tpcc-aging tpcc-mv-smoke fuzz-smoke old-spellings fmt-check

build:
	go build ./...

test:
	go test ./...

# ROADMAP aim 2's measure, per package and for the root module: non-test .go
# lines, comments and blanks included (benchmark/ is a module of its own and is
# not counted), then EXPERIMENTS.md's lines, the document beside the code. CI
# prints it after Build, so a PR that says "net negative in core" is read, not
# asserted. The last line is ROADMAP item 10's size target, obs against the
# memory system it observes: obs - (pmem + sim), to reach 0.
lines:
	@count() { find $$1 -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l; }; \
	for d in $$(find cmd internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%7d  %s\n' $$(count $$d) $$d; \
	done; \
	printf '%7d  root module\n' $$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l); \
	printf '%7d  EXPERIMENTS.md\n' $$(wc -l < EXPERIMENTS.md); \
	printf '%7d  obs - (pmem + sim)\n' $$(( $$(count internal/obs) - $$(count internal/pmem) - $$(count internal/sim) ))

# The race lane, here and in CI (ci.yml runs this target, so there is one
# package list): -short trims property-check sample counts. sim holds the group
# scheduler's token handoff, whose own tests no other lane runs under the
# detector.
race:
	go test -race -short ./internal/obs ./internal/bench ./internal/pmem ./internal/index ./internal/core ./internal/wal ./internal/heap ./internal/alloc ./internal/sim ./internal/cc ./internal/version ./internal/workload/ycsb

# Worker-parallel race lane: the same engine/simulation packages plus the
# crash-consistency oracle, with GOMAXPROCS=4 so the group scheduler's token
# handoffs and the free-running spin-locked paths actually run across cores
# under the race detector. The index
# and TPC-C packages are here for the B-tree's lock-free readers: what they
# load beside a writer (root, nextFree, the sequence word) must be atomic.
# sim is here for the token's coroutine handoff itself, which its own tests
# drive at GOMAXPROCS 1 and 4. server is here for two free-running workers
# inserting into the one idempotency B+-tree while the other's Read probes
# run beside them (TestTwoWorkersShareTheIdemTree).
# -count=1 because GOMAXPROCS is not part of Go's test-cache key: right after
# `make race` the shared packages would otherwise report (cached).
race-par:
	GOMAXPROCS=4 go test -race -short -count=1 ./internal/crashtest ./internal/core ./internal/pmem ./internal/bench ./internal/index ./internal/workload/tpcc ./internal/sim ./internal/server

# Time the default Figure-11 sweep built from the working tree against the
# one built from HEAD, in alternating pairs, and append the pair entry to
# BENCH_hostperf.json (~5 min on two cores); see README "Tracking host
# performance".
bench:
	go run ./cmd/falcon hostbench -against HEAD -label "$(shell git rev-parse --short HEAD)"

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
# preset (~30 s; each run fails by its own 90 s deadline with the goroutine
# dump). While Scan held the B-tree's lock across its callbacks this hung on
# the Outp row in two runs of three: a snapshot read spun for a writer that
# was queued on the same tree's lock. The figure commands run their workers
# under the group-mode token, so the test, not `falcon tpcc`, runs them free.
tpcc-mv-smoke:
	go test -count=1 -run TestMVMixFinishesFreeRunning ./internal/workload/tpcc

# Ten seconds of native fuzzing per target, on top of the checked-in corpora
# that every `go test` run replays (same lane CI runs). -fuzzminimizetime caps
# the minimization of each new interesting input: at Go's default of 60 s the
# first one takes the rest of the ten seconds, and FuzzBTreeOps found 0 or 1
# new inputs per run; at 5 s, 2 or 3; at 1 s, 15 or 16.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzBTreeOps -fuzztime 10s -fuzzminimizetime 1s ./internal/index
	go test -run '^$$' -fuzz FuzzHashOps -fuzztime 10s -fuzzminimizetime 1s ./internal/index
	go test -run '^$$' -fuzz FuzzXPIndex -fuzztime 10s -fuzzminimizetime 1s ./internal/pmem
	go test -run '^$$' -fuzz FuzzXPBufferModel -fuzztime 10s -fuzzminimizetime 1s ./internal/pmem
	go test -run '^$$' -fuzz FuzzHotSetModel -fuzztime 10s -fuzzminimizetime 1s ./internal/core
	go test -run '^$$' -fuzz FuzzReadCatalog -fuzztime 10s -fuzzminimizetime 1s ./internal/core
	go test -run '^$$' -fuzz FuzzParseRequest -fuzztime 10s -fuzzminimizetime 1s ./internal/server

sweep:
	go run ./cmd/falcon sweep

# Regenerate the generated sections of EXPERIMENTS.md (marker-delimited;
# hand-written text survives) from a fresh Figure-11 sweep: the phase-share
# tables of the per-commit baseline grid and the hot-key heat tables, then the
# same grid through leader-based group commit (its own marker section, so the
# two render side by side for the log+flush comparison). Every figure cell runs
# its workers under the group-mode token, so two regenerations at one commit
# write the same bytes, at any GOMAXPROCS.
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
# consumer once, the exposition and its goldens, what Engine.ObsSnapshot and
# Server.Snapshot carry), then a -contend -prom run that must leave a
# non-empty scrape file (same lane CI runs).
contend-smoke:
	go test -race -short -run 'TestContend|TestConcurrentMerge|TestReportShape|TestProbe|TestAbortCounts|TestNilProbe|TestEveryEvent|TestWritePrometheus|TestPrometheus|TestNanosFamiliesNameTheirClock|TestSchema|TestStreamLine|TestObsSnapshot|TestSnapshotCarriesServer|TestSweepCellObsGolden' ./internal/core ./internal/obs ./internal/bench ./internal/server
	go run ./cmd/falcon ycsb -threads 2 -records 2000 -txns 50 -warmup 10 -workloads A -contend -prom /tmp/falcon-metrics.prom
	test -s /tmp/falcon-metrics.prom

# The nine per-tool binaries were folded into `falcon <subcommand>`, the
# named-collector stats registry into Engine.ObsSnapshot and Server.Snapshot,
# the two memory spaces into pmem.MemSpace, the epoch-length and version-
# headroom knobs into constants, the hand-rolled bulk loads into
# core.Table.Load, the chunked -stream phase into one window per cell, the
# histogram dump into obs.Histogram, the recovery report's time fields into
# its probe's phases, and the cost model, the shared stop flag and the
# single-valued workload settings into constants, the cache's
# power-of-two "effective" share into exact set counts, and group mode's
# round-barrier replay, per-worker timing caches and deferred epoch seals into
# the one machine under a token, and the free-running figure schedule, its
# worker-scheduling flag and the sweep's and hostbench's cell-count flags into
# that token with GOMAXPROCS cells at once, and group mode's enter, begin,
# leave and exit calls into the one Engine.RunGroup, and the ADR hit
# validation and log-driven index repair into one index rebuild from the
# heap; fail when a removed spelling comes back (same lane CI runs). CHANGES.md, ROADMAP.md and benchmark/ are history
# and exempt, and so are the tests that check a removed flag is refused. The
# [-], the [R]s and the like keep this recipe from matching itself.
old-spellings:
	! grep -rnE 'cmd/falcon[-]|falcon[-](micro|tpcc|ycsb|sweep|recovery|hostbench|serve|loadgen|tracecheck)\b' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE 'New[R]egistry|Stats[R]egistry|\.Obs\(\)\.[R]egister' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE '\b(New)?(N[V]M|D[R]AM)Space(Cache)?\b|dram[T]imingBackend|Group[E]pochNanos|Version[H]eadroom|-[e]pochns|Bulk[I]ndexInsert' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE 'stream[-]every|Epoch[T]xns|On[E]poch|Histogram[D]ump|Catalog[N]anos' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE 'Cost[M]odel|Stop[F]lag|Err[S]topped|Workload[S]eed|Orders[P]erDistrict' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE '\bCache[S]hare\b|effective [c]ache' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE 'det[R]eplay|defer[S]eal|[d]ataless|ConflictDet[B]arrier|Barrier[T]ick|note[C]ommitted|det[T]ID' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE --exclude='*_test.go' -- '-[p]arworkers|(sweep|hostbench)\b.*[[:space:]]-[p]ar\b' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE --exclude='*_test.go' -- 'Enter[G]roup|Leave[G]roup|Group\(\)\.' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go
	! grep -rnE 'validate[H]its|adrIndex[F]ix|rebuild[D]RAMIndexes' \
		Makefile .github scripts README.md DESIGN.md EXPERIMENTS.md .claude cmd internal *.go

# Every Go file gofmt-clean, benchmark/ included (same lane CI runs).
fmt-check:
	test -z "$$(gofmt -l .)"
