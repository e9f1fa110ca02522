# Developer entry points. The repo is plain `go` otherwise; these
# targets just pin the invocations CI and contributors should use.

GO ?= go

.PHONY: build test vet test-race verify bench clean docs-check fmt-check bench-smoke storage-smoke repair-smoke churn-smoke consistency-smoke tenant-smoke bench-allocs benchmark benchmark-test profile-handle profile-bulkload profile-quorum profile-durable profile-batch fuzz-smoke flake flake-race loc

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
# comment, doc code blocks only reference real CLI flags, every
# registered metric name is catalogued in OBSERVABILITY.md and every
# name in its tables is registered, and the knob rule holds: every exported field of the options structs
# zht-server links (core.Config, novoht.Options, the transport client
# options, gossip.Options, tenant.Tenant, tenant.AdmissionOptions,
# memcached.Options, repair.LegQueueOptions) is set by a non-test
# file outside its own package, seams excepted, and every test name the
# docs cite in backticks is a func of some _test.go. The rules' own
# tests run under `go test ./...`.
docs-check:
	$(GO) run ./internal/tools/docscheck

# bench-smoke holds the wall-clock ratio gates, each run alone so no
# other package's tests contend for the CPU. The root
# BenchmarkBatchSpeedup runs the paper's micro-benchmark over loopback
# TCP once lockstep and once with Client.Batch of 64, and fails unless
# batching wins by batchSpeedupMin (3x). figures'
# BenchmarkFig19MatrixEfficiency runs Figure 19's quick rows and fails
# unless MATRIX beats Falkon and reaches 50 % efficiency at every task
# duration. The caps leave room to compile each test binary from a
# cold build cache.
bench-smoke:
	timeout 120 $(GO) test -run '^$$' -bench '^BenchmarkBatchSpeedup$$' -benchtime 1x .
	timeout 120 $(GO) test -run '^$$' -bench '^BenchmarkFig19MatrixEfficiency$$' -benchtime 1x ./internal/figures

# The five smoke targets below are verify's randomized gates. Each one
# runs a test that `go test ./...` also runs, on that test's fixed
# seeds; here it runs on fresh ones. The target sets ZHT_SEED to a new
# base seed (the clock in nanoseconds, unless ZHT_SEED is already set),
# and the test then runs the consecutive seeds base, base+1, ... (see
# chaos.Seeds, which logs every seed). The first line a target prints
# is its base and the command that replays the run exactly:
#
#   ZHT_SEED=<base> go test -count=1 -run '^<Test>$' ./<package>
#
# `ZHT_SEED=<base> make <target>` replays it too.
smoke = seed=$${ZHT_SEED:-$$(date +%s%N)}; \
	echo "$@: ZHT_SEED=$$seed; replay: ZHT_SEED=$$seed $(GO) test -count=1 -run '$(1)' $(2)"; \
	ZHT_SEED=$$seed timeout $(3) $(GO) test -count=1 -run '$(1)' $(2)

# storage-smoke is the crash-recovery and index gate: novoht's
# TestGroupCrashReplay on 10 fresh seeds, under group and sync
# durability, and TestIndexEquivalence on 4. Each crash run tears the
# write-ahead log mid-commit via the chaos fault hooks while mixed
# put/append/remove histories and log cleans run, reopens the store,
# and checks that every acknowledged mutation survived and each key
# recovered to a state of its own history. Each index run drives a
# store and a Go map with one random history, with the seeded probe
# hash and with one that forces long, wrapping collision chains, and
# requires them to agree after every step.
storage-smoke:
	@$(call smoke,^(TestGroupCrashReplay|TestIndexEquivalence)$$,./internal/novoht,60)

# repair-smoke is the replica-convergence gate: chaos's
# TestAntiEntropyConvergesAfterPartition on 3 fresh seeds. Each run
# partitions a replica away mid-load, heals it, and requires digest
# equality across replicas plus zero lost acked writes.
repair-smoke:
	@$(call smoke,^TestAntiEntropyConvergesAfterPartition$$,./internal/chaos,60)

# churn-smoke is the elastic-membership gate: chaos's
# TestGossipOnlyEpochConvergence on 2 fresh seeds. Each run scales a
# loaded deployment up by two and back down by two (each change reaches
# only the instances whose copies it moves, so gossip must converge the
# rest of the ring), and requires zero lost acked writes, epoch
# agreement, a gossip advance, digest convergence, and evidence that
# data moved through the throttled migration engine.
churn-smoke:
	@$(call smoke,^TestGossipOnlyEpochConvergence$$,./internal/chaos,90)

# consistency-smoke is the tunable-consistency gate: chaos's
# TestQuorumReadYourWritesUnderChaos and TestClientOnlyOutageHeals on 3
# fresh seeds each. Each quorum run drives sequential QUORUM write+read
# pairs through a clean phase, a replica partition and a lossy phase
# with a node crash, requiring read-your-writes on every acked write,
# enforced quorum refusals while the replica is unreachable, and zero
# lost acked writes. Each outage run cuts every link of one client for
# 100 ms while the servers stay healthy, and requires every key served
# one breaker cooldown after the heal, from a table equal to the
# servers'.
consistency-smoke:
	@$(call smoke,^(TestQuorumReadYourWritesUnderChaos|TestClientOnlyOutageHeals)$$,./internal/chaos,60)

# tenant-smoke is the multi-tenancy gate: tenant's
# TestNoisyNeighborIsolation on 3 fresh seeds, plus core's
# TestTTLLazyExpiryAndReap. The first floods one quota-capped tenant
# while pacing another, and requires the capped tenant to be shed at
# the admission gate, the in-quota tenant to run loss- and shed-free,
# and namespace isolation between the two. The second requires TTL
# expiry + reaping to hold end to end.
tenant-smoke:
	@$(call smoke,^(TestNoisyNeighborIsolation|TestTTLLazyExpiryAndReap)$$,./internal/tenant ./internal/core,60)

# fuzz-smoke runs every native fuzz target (`func Fuzz*` in any test
# file of this module) for 10 s each, one target at a time, seeded
# from its corpus. A failing input is written under the package's
# testdata/fuzz/ for replay with plain `go test`.
fuzz-smoke:
	@fail=0; for t in $$(grep -r --include='*_test.go' --exclude-dir=benchmark -o '^func Fuzz[A-Za-z0-9_]*' . \
			| sed 's|/[^/]*_test.go:func |:|'); do \
		dir=$${t%%:*}; fz=$${t##*:}; \
		echo "== fuzz $$dir $$fz"; \
		$(GO) test -run '^$$' -fuzz "^$$fz\$$" -fuzztime 10s $$dir || fail=1; \
	done; exit $$fail

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

# benchmark-test vets and runs the benchmark module's own tests. The
# module sits outside `go vet ./...` and `go test ./...` (its own
# go.mod), so this is the only target that notices when an internal/
# change stops it compiling.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# verify is the pre-merge gate: formatting and docs checks, static
# analysis, the full test suite (including the chaos soaks) under the
# race detector, a short pass of every fuzz target, the benchmark
# module's tests, the hot-path allocation gate, and the wall-clock
# ratio (batching, Figure 19) + crash-recovery + replica-repair +
# elastic-membership + tunable-consistency + multi-tenancy smoke runs.
# Every step runs even after one fails, so one red never hides the
# rest; the last line is the pass/fail census and the exit status is
# non-zero if any step failed.
VERIFY_STEPS = fmt-check docs-check vet test-race fuzz-smoke benchmark-test bench-allocs \
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

# flake measures how often the chaos and consistency soaks, the client
# outage run, core's races of concurrent writers of one key (adds over
# an expired pair, replicated batches), its migration-gate races and
# its timed routing heals (a dead owner's re-failover, a remove under
# partition, the WrongOwner pause) fail: each runs 40 times without
# the race detector, one package at a time, every failing run is
# printed with its seeds and first log lines, and the last line is the
# census, a subtest counted under its own name too.
# The seeds are fixed, so a failure here is one the scheduler chose.
# flake-race is the same census under the race detector, 10 runs each
# (the schedules verify's test-race step sees). Not part of verify:
# they take minutes and measure a rate.
flake flake-race:
	@$(GO) test $(if $(filter flake-race,$@),-race -count=10,-count=40) -p 1 -v -timeout 60m \
		-run '^(TestChaosSoak|TestAutoscaleChaosSoak|TestQuorumReadYourWritesUnderChaos|TestClientOnlyOutageHeals|TestConcurrentAddOverExpired|TestConcurrentReplicatedBatchesConverge|TestMoveAfterGateRequeues|TestGateWaitHoldsNoFence|TestMoveWaitsOnlyForItsPartition|TestMigrationGateKeepsNewerRecord|TestReportFailsOverDeadOwner|TestRemoveUnderPartitionStaysRemoved|TestWrongOwnerWithoutNewerTablePauses)$$' \
		./internal/chaos ./internal/core 2>&1 | awk ' \
		/^=== RUN/ { name = $$3; if (!runs[name]++) order[++k] = name; if (name !~ /\//) { buf = ""; n = 0 }; next } ; \
		/^ +--- FAIL/ { fails[$$3]++; next } ; \
		/^    / { if (n++ < 6) buf = buf "\n" $$0; next } ; \
		/^--- FAIL/ { fails[$$3]++; bad++; print "FAIL " $$3 " run " runs[$$3] buf; next } ; \
		/^panic:|^FAIL\t/ { print } ; \
		END { line = "$@:"; \
			for (i = 1; i <= k; i++) line = line sprintf(" %s %d/%d failed;", order[i], fails[order[i]], runs[order[i]]); \
			print line " total " bad + 0 " failed"; exit bad > 0 }'

# profile-handle CPU- and mutex-profiles BenchmarkHandleParallelZipf,
# the in-process shape of the inproc-parallel-zipf workload (client
# routing, Instance.Handle, the partition store), and prints the
# hottest functions, then the 20 zht functions whose locks waited
# longest (the lock ladder of DESIGN.md §7). The profiles and test
# binary stay in .profile/ for `go tool pprof -http`.
profile-handle:
	@mkdir -p .profile
	$(GO) test -run '^$$' -bench '^BenchmarkHandleParallelZipf$$' -benchtime 5s \
		-cpuprofile .profile/handle.cpu.pprof -mutexprofile .profile/handle.mutex.pprof \
		-o .profile/zht.test .
	$(GO) tool pprof -top -nodecount 40 .profile/zht.test .profile/handle.cpu.pprof
	$(GO) tool pprof -top -nodecount 20 -show '^zht/' .profile/zht.test .profile/handle.mutex.pprof

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

# profile-durable CPU-profiles BenchmarkDurableWriteParallel, the
# steady-state write of tcp-r1-durable-write alone (2 instances on
# loopback TCP, Replicas=1, every partition on an async WAL, one shared
# client inserting from every core), and prints the hottest functions;
# profile and test binary stay in .profile/.
profile-durable:
	@mkdir -p .profile
	$(GO) test -run '^$$' -bench '^BenchmarkDurableWriteParallel$$' -benchtime 5s -benchmem \
		-cpuprofile .profile/durable.cpu.pprof -o .profile/zht.test .
	$(GO) tool pprof -top -nodecount 40 .profile/zht.test .profile/durable.cpu.pprof

# profile-batch CPU-profiles BenchmarkBatchMixedParallel, the envelope
# path of the tcp-batch64-mixed workload alone (2 unreplicated
# instances on loopback TCP, Client.Batch of 64 mixed sub-ops from every
# core), and prints the hottest functions; profile and test binary stay
# in .profile/.
profile-batch:
	@mkdir -p .profile
	$(GO) test -run '^$$' -bench '^BenchmarkBatchMixedParallel$$' -benchtime 5s -benchmem \
		-cpuprofile .profile/batch.cpu.pprof -o .profile/zht.test .
	$(GO) tool pprof -top -nodecount 40 .profile/zht.test .profile/batch.cpu.pprof

bench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...

# loc prints the size rows of ROADMAP.md's snapshot: non-test Go lines
# under internal/, all Go lines outside benchmark/ (tests included),
# non-test lines of internal/core, internal/novoht, internal/transport
# and internal/chaos, and DESIGN.md's lines.
loc:
	@echo "non-test internal/: $$(find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@echo "all Go outside benchmark/: $$(find . -name '*.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@echo "non-test internal/core: $$(find internal/core -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test internal/novoht: $$(find internal/novoht -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@echo "non-test internal/transport: $$(find internal/transport -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test internal/chaos: $$(find internal/chaos -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "DESIGN.md: $$(wc -l < DESIGN.md)"
