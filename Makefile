# Developer entry points. The repo is plain `go` otherwise; these
# targets just pin the invocations CI and contributors should use.

GO ?= go

.PHONY: build test vet test-race verify bench clean docs-check fmt-check bench-smoke storage-smoke repair-smoke churn-smoke consistency-smoke tenant-smoke bench-allocs benchmark benchmark-test profile-handle profile-bulkload profile-quorum flake flake-race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# test-race is the full suite, chaos soaks included, under the race
# detector.
test-race:
	$(GO) test -race ./...

# fmt-check fails (and lists the offenders) if any file is not gofmt'd.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# docs-check keeps the prose honest: every package has a godoc
# comment, doc code blocks only reference real CLI flags, and every
# registered metric name is catalogued in OBSERVABILITY.md.
docs-check:
	$(GO) run ./internal/tools/docscheck

# bench-smoke is the batching regression gate: a 30s-capped loopback
# TCP run that fails unless `-batch` beats lockstep by the required
# ratio (see cmd/zht-bench -smoke).
bench-smoke:
	timeout 30 $(GO) run ./cmd/zht-bench -smoke

# storage-smoke is the crash-recovery gate: a randomized loop that
# tears the write-ahead log mid-commit via the chaos fault hooks,
# reopens the store, and checks that every acknowledged mutation
# survived (see internal/tools/storagesmoke). Seeds are printed, so a
# failure is replayable with -seed.
storage-smoke:
	timeout 60 $(GO) run ./internal/tools/storagesmoke

# repair-smoke is the replica-convergence gate: a randomized loop
# that partitions a replica away mid-load, heals it, and requires
# digest equality across replicas plus zero lost acked writes (see
# internal/tools/repairsmoke). Seeds are printed, so a failure is
# replayable with -seed.
repair-smoke:
	timeout 60 $(GO) run ./internal/tools/repairsmoke

# churn-smoke is the elastic-membership gate: a randomized loop that
# scales a loaded deployment up and back down (one iteration with the
# manager's delta broadcast suppressed, so gossip alone must converge
# the ring), and requires zero lost acked writes, epoch agreement,
# digest convergence, and evidence that data moved through the
# throttled migration engine (see internal/tools/churnsmoke). Seeds
# are printed, so a failure is replayable with -seed.
churn-smoke:
	timeout 90 $(GO) run ./internal/tools/churnsmoke

# consistency-smoke is the tunable-consistency gate: a randomized
# loop of sequential QUORUM write+read pairs through a replica
# partition and a node crash, requiring read-your-writes on every
# acked write, enforced quorum refusals while the replica is
# unreachable, and zero lost acked writes (see
# internal/tools/consistencysmoke). Seeds are printed, so a failure
# is replayable with -seed.
consistency-smoke:
	timeout 60 $(GO) run ./internal/tools/consistencysmoke

# tenant-smoke is the multi-tenancy gate: a randomized loop that
# floods one quota-capped tenant while pacing another, and requires
# the capped tenant to be shed at the admission gate, the in-quota
# tenant to run loss- and shed-free, namespace isolation between the
# two, and TTL expiry + reaping to hold end to end (see
# internal/tools/tenantsmoke). Seeds are printed, so a failure is
# replayable with -seed.
tenant-smoke:
	timeout 60 $(GO) run ./internal/tools/tenantsmoke

# bench-allocs is the hot-path allocation gate: it benchmarks the
# loopback TCP and in-process request paths and fails if Lookup, Insert,
# or batched Insert exceeds its allocs/op budget (the budget constants and
# their analytical derivation live at the top of allocs_test.go). Run
# without -race: the race detector's instrumentation allocates, so the
# gate skips itself under it.
bench-allocs:
	timeout 120 $(GO) test -run TestHotPathAllocBudget -count=1 -v .

# benchmark runs the repo benchmark (BENCHMARK.json): all five
# workloads, end-to-end metrics only. See benchmark/README.md.
benchmark:
	bash benchmark/run.sh --workload all --trace 0

# benchmark-test runs the benchmark module's own tests. The module
# sits outside `go test ./...` (its own go.mod), so this is the only
# target that notices when an internal/ change stops it compiling.
benchmark-test:
	cd benchmark && $(GO) test ./...

# verify is the pre-merge gate: formatting and docs checks, static
# analysis, the full test suite (including the chaos soaks) under the
# race detector, the benchmark module's tests, the hot-path allocation
# gate, and the batching + crash-recovery + replica-repair +
# elastic-membership + tunable-consistency + multi-tenancy smoke runs.
# Every step runs even after one fails, so one red never hides the
# rest; the last line is the pass/fail census and the exit status is
# non-zero if any step failed.
VERIFY_STEPS = fmt-check docs-check vet test-race benchmark-test bench-allocs \
	bench-smoke storage-smoke repair-smoke churn-smoke consistency-smoke tenant-smoke

verify:
	@passed=""; failed=""; \
	for step in $(VERIFY_STEPS); do \
		echo "== verify: $$step"; \
		if $(MAKE) --no-print-directory $$step; then passed="$$passed $$step"; \
		else failed="$$failed $$step"; fi; \
	done; \
	echo "verify: $$(echo $$passed | wc -w) passed, $$(echo $$failed | wc -w) failed:$${failed:- none}"; \
	[ -z "$$failed" ]

# flake measures how often the chaos and consistency soaks fail: each
# runs 40 times without the race detector, every failing run is printed
# with its seeds and first log lines, and the last line is the census.
# The seeds are fixed, so a failure here is one the scheduler chose.
# flake-race is the same census under the race detector, 10 runs each
# (the schedules verify's test-race step sees). Not part of verify:
# they take minutes and measure a rate.
flake flake-race:
	@$(GO) test $(if $(filter flake-race,$@),-race -count=10,-count=40) -v -timeout 60m \
		-run '^(TestChaosSoak|TestAutoscaleChaosSoak|TestQuorumReadYourWritesUnderChaos)$$' \
		./internal/chaos 2>&1 | awk ' \
		/^=== RUN/ { name = $$3; if (!runs[name]++) order[++k] = name; buf = ""; n = 0; next } ; \
		/^    / { if (n++ < 6) buf = buf "\n" $$0; next } ; \
		/^--- FAIL/ { fails[$$3]++; bad++; print "FAIL " $$3 " run " runs[$$3] buf; next } ; \
		/^panic:|^FAIL\t/ { print } ; \
		END { line = "$@:"; \
			for (i = 1; i <= k; i++) line = line sprintf(" %s %d/%d failed;", order[i], fails[order[i]], runs[order[i]]); \
			print line " total " bad + 0 " failed"; exit bad > 0 }'

# profile-handle CPU-profiles BenchmarkHandleParallelZipf, the
# in-process shape of the inproc-parallel-zipf workload (client
# routing, Instance.Handle, the partition store), and prints the
# hottest functions. The profile and test binary stay in .profile/ for
# `go tool pprof -http`.
profile-handle:
	@mkdir -p .profile
	$(GO) test -run '^$$' -bench '^BenchmarkHandleParallelZipf$$' -benchtime 5s \
		-cpuprofile .profile/handle.cpu.pprof -o .profile/zht.test .
	$(GO) tool pprof -top -nodecount 40 .profile/zht.test .profile/handle.cpu.pprof

# profile-bulkload CPU-profiles BenchmarkBatchReplicatedLoad, the
# bulk-load shape of the tcp-r1-durable-write set-up (800
# Client.Batch(256) inserts into a Replicas=1 deployment on async
# WALs), and prints the hottest functions; profile and test binary
# stay in .profile/.
profile-bulkload:
	@mkdir -p .profile
	$(GO) test -run '^$$' -bench '^BenchmarkBatchReplicatedLoad$$' -benchtime 800x \
		-cpuprofile .profile/bulkload.cpu.pprof -o .profile/zht.test .
	$(GO) tool pprof -top -nodecount 40 .profile/zht.test .profile/bulkload.cpu.pprof

# profile-quorum CPU-profiles BenchmarkQuorumLookupParallel, the QUORUM
# read of tcp-r1-durable-write alone (2 instances on loopback TCP,
# Replicas=1, one shared client from every core), and prints the
# hottest functions; profile and test binary stay in .profile/.
profile-quorum:
	@mkdir -p .profile
	$(GO) test -run '^$$' -bench '^BenchmarkQuorumLookupParallel$$' -benchtime 5s -benchmem \
		-cpuprofile .profile/quorum.cpu.pprof -o .profile/zht.test .
	$(GO) tool pprof -top -nodecount 40 .profile/zht.test .profile/quorum.cpu.pprof

bench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
