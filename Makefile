GO ?= go

.PHONY: all build test test-cpu1 test-bench vet check-fmt race race-conflict race-legs bench-pair bench-pair-all bench bench-smoke profile-net profile-heap profile-sim check-obs-imports check-allocs check-admin check-cluster check-clean fuzz-smoke loc ci

all: build

build:
	$(GO) build ./...

# vet covers the benchmark's module too: bench/ is a module of its own, so
# `go vet ./...` at the root does not reach it.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# check-fmt fails when a tracked Go file is not gofmt-formatted.
check-fmt:
	@bad=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$bad" ]; then echo "check-fmt: not gofmt-formatted:"; echo "$$bad"; exit 1; fi; \
	echo "check-fmt: every tracked .go file is formatted"

test:
	$(GO) test ./...

# test-cpu1 runs tier-1 at GOMAXPROCS 1, the configuration the benchmark
# measures in: a test whose assertion holds only when goroutines run in
# parallel fails here.
test-cpu1:
	$(GO) test -count=1 -cpu 1 ./...

# race runs every package's tests under the race detector — the 10k-case
# quorum properties of internal/coterie (compiled ≡ uncompiled, every picker
# minimal) included, their subtests in parallel.
race:
	$(GO) test -race ./...

# test-bench runs the benchmark's own tests. bench/ is a module of its own
# (the driver builds it from inside its checkout), so `go test ./...` at
# the root — tier-1 — does not reach the instrument.
test-bench:
	$(GO) test -C bench ./...

# race-conflict repeats the conflict-resolution stress tests (ordered
# wait-or-refuse replica locks, nine writers on one item, refused rounds,
# group-committed batches, whose commit is one-way) under the race detector with their short budget: each run draws different
# interleavings, and a deadlock shows as a denied or expired lock count.
race-conflict:
	$(GO) test -race -short -count=3 -run 'TestOrderedLock|TestRefused' ./internal/replica/
	$(GO) test -race -short -count=3 -run 'TestHotItemWritersOnEveryNode|TestRefused|TestGroupCommit' ./internal/core/

# race-legs repeats the sim transport's leg tests under the race detector:
# legs run on their caller's goroutine unless they wait, a waiting leg holds
# up no other, no concurrency cap, results in ID order on the caller's
# goroutine, failed targets, nested multicasts (the no-wait marker does not
# leak into them), a would-wait attempt counted as nothing, the hand-off
# itself (idle tokens claimed by compare-and-swap) — and the seam on the
# other side: a no-wait acquire that changes nothing, under each policy, and
# a handler that judges leases by the reading its leg was lent.
race-legs:
	$(GO) test -race -count=20 -run 'TestLegs|TestWorkers|TestNoWait|TestWouldWait|TestHandlerUsesRoundClock' ./internal/transport/ ./internal/replica/

# bench-pair W=<workload> [N=10] [SEED=1] [BASE=HEAD~1] [TRACE=1] compares
# the working tree against commit BASE on one workload of BENCHMARK.json:
# N pairs of `bash bench/run.sh` runs from two checkouts, alternating which
# side goes first, then medians, quartiles, pair wins and a verdict per
# metric (scripts/benchpair). The parent checkout is a `git archive` under
# .bench_build, which .gitignore covers.
W ?= sim_hot
N ?= 10
SEED ?= 1
BASE ?= HEAD~1
bench-pair:
	rm -rf .bench_build/pair-parent && mkdir -p .bench_build/pair-parent
	git archive $(BASE) | tar -x -C .bench_build/pair-parent
	$(GO) run ./scripts/benchpair -parent .bench_build/pair-parent -change . -w $(W) -n $(N) -seed $(SEED) $(if $(TRACE),-trace) $(if $(CLAIM),-claim $(CLAIM))

# bench-pair-all [N=10] [SEED=1] [BASE=HEAD~1] [CLAIM=workload:metric] is
# bench-pair over every workload of BENCHMARK.json, one after the other, and
# then one combined table: the claimed cell against the claim rule, every
# other cell against its bound. About a minute per pair per workload — the
# no-regression half of a claim in one command, but not part of ci.
bench-pair-all:
	$(MAKE) bench-pair W=all

# bench-smoke runs every benchmark for a single iteration — a fast compile-
# and-run sanity pass, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench produces benchstat-comparable numbers for the tracked hot paths
# (see README "Benchmarks" for methodology).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkTable1Dynamic|BenchmarkSimAvailability' -benchmem -count=5 -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkQuorumMessages' -benchmem -count=5 -benchtime=50x .

# check-admin smokes the admin plane: an in-process 3-daemon cluster with
# admin endpoints, fully-sampled client traffic, every route on every
# daemon, and an aggregator timeline that spans more than one node.
check-admin:
	$(GO) run ./scripts/checkadmin

# check-cluster runs the multi-process data plane twice and takes loadgen's
# exit status as the verdict: three one-shard daemons (every item on every
# node) under SIGKILL/respawn churn must leave one-copy serializable
# histories, and a sweep of a sharded keyspace must touch every key with
# none violated.
check-cluster:
	$(GO) run ./cmd/loadgen -net tcp -nodes 3 -items 2 -workers 4 -duration 5s -churn 800ms >/dev/null
	$(GO) run ./cmd/loadgen -shards 8 -rf 2 -nodes 4 -keyspace 2000 -sweep -duration 2s >/dev/null

# check-clean fails when `git status` is not empty — a tracked file changed,
# or a file appeared that git neither tracks nor ignores: the stages before
# it write no tracked file.
check-clean:
	@dirty=$$(git status --porcelain); \
	if [ -n "$$dirty" ]; then echo "check-clean: the tree is not clean:"; echo "$$dirty"; exit 1; fi; \
	echo "check-clean: git status is empty"

# profile-net captures a CPU profile of the networked hot path: a tcp-mode
# loadgen run serves pprof on 127.0.0.1:6161 (daemon i's admin plane, which
# serves pprof, on 6162+i) and the client process is sampled mid-run. The flat top lands on stdout; the raw
# profile stays under $$HOME/pprof for `go tool pprof`.
profile-net:
	$(GO) build -o /tmp/coterie-loadgen ./cmd/loadgen
	/tmp/coterie-loadgen -duration 18s -nodes 3 -items 8 -workers 8 -disjoint \
		-read-frac 0.5 -net tcp -pprof 6161 >/dev/null & \
	sleep 3 && $(GO) tool pprof -top -nodecount 25 \
		-seconds 10 http://127.0.0.1:6161/debug/pprof/profile; wait

# profile-heap prints where a sharded daemon's live heap sits: a loadgen run
# over 2 048 keys in 16 shards of 3 replicas on 4 daemons (pprof on
# 127.0.0.1:6171, daemon i's admin plane on 6172+i; one allocation in 4 KB sampled, not
# one in 512 KB: a daemon holds a few MB) and, once the warm-up has touched
# the keyspace, the in-use-space top of daemon 0's heap profile after a
# forced collection. loadgen's items are 256 bytes where tcp_sharded's are
# 1 KB, so the value rows are a quarter of the benchmark's; everything per
# item that is not its value reads the same. The raw profile stays under
# $$HOME/pprof.
profile-heap:
	$(GO) build -o /tmp/coterie-loadgen ./cmd/loadgen
	GODEBUG=memprofilerate=4096 /tmp/coterie-loadgen -duration 18s -nodes 4 \
		-shards 16 -rf 3 -keyspace 2048 -workers 8 -pprof 6171 >/dev/null 2>&1 & \
	sleep 8 && $(GO) tool pprof -sample_index=inuse_space -top -nodecount 25 \
		'http://127.0.0.1:6172/debug/pprof/heap?gc=1'; wait

# profile-sim prints where the simulated fast path spends its processor and
# what it allocates: a one-processor loadgen run of sim_disjoint's shape
# (nine nodes, two clients on an item each, half reads, the same registry,
# flight recorder and hint strategy) serves pprof on 127.0.0.1:6181, and
# mid-run the flat CPU top of ten seconds and the top by objects allocated
# since start land on stdout. Binary and raw profiles stay under
# .bench_build. Not part of ci.
profile-sim:
	$(GO) build -o .bench_build/coterie-loadgen ./cmd/loadgen
	GOMAXPROCS=1 .bench_build/coterie-loadgen -net sim -nodes 9 -items 2 -workers 2 -disjoint \
		-read-frac 0.5 -duration 16s -pprof 6181 >/dev/null & \
	sleep 3 && PPROF_TMPDIR=.bench_build/pprof $(GO) tool pprof -top -nodecount 30 \
		-seconds 10 http://127.0.0.1:6181/debug/pprof/profile && \
	PPROF_TMPDIR=.bench_build/pprof $(GO) tool pprof -sample_index=alloc_objects -top -nodecount 20 \
		http://127.0.0.1:6181/debug/pprof/allocs; wait

# check-allocs runs the steady-state allocation gates: a whole operation on
# the benchmark's nine-node sim cluster (a write at most 14 objects, a read
# 4: what outlives the operation and nothing of its rounds), the combiner's
# join/cut/wait machinery, the flight recorder's cycle (after one lap of its
# ring), the decision ring, a refused write-through push, the sim transport's
# multicast (nothing per round — legs, reply slots and the no-wait marker
# are pooled scratch — and no leg handed to a worker or goroutine started
# while nothing waits; at most a constant number parked after a burst), the
# mux dispatch and wire encode hot paths, the tcpnet frame codec, and the
# weighted quorum pick
# (alias-table sampling in coterie and the coordinator's pick wrapper) must
# not allocate per operation — with measured capacities too: a sim Call that
# times itself into its destination's cell and the picks that follow — nor
# planning a write's push targets under the
# capacity rule, nor tcpnet's flush itself (writeRing on a discarding
# connection). The per-message budget rides here too: every nodeset.Set
# operation on IDs below 64 allocates nothing; a bounded round allocates its
# deadline context and nothing else; answering into a lent slot, a
# LockPrepare+Commit cycle on one replica allocates the update's one copy, a
# ReadSnap nothing, an applied ApplyDirect the update's copy; an inline
# one-way send nothing whatever its fan-out (they gate with
# testing.AllocsPerRun and skip themselves under -race).
# So does what an item weighs before any message: a cold replica is two
# allocations and at most 768 bytes beyond its value, ten decisions 128 bytes,
# a full decision ring 36 KB, one whose records fit no chunk base the old
# 16-byte ring and 2 KB (the ring's own count, cross-checked against the live
# heap after a collection, as live_heap_mb is read).
# And what a cluster costs to set up, before any operation: a 256-trace
# flight ring at most 64 KB and at most two allocations per slot in its
# life, the benchmark's sim shape through core.NewGroup at most 160 KB in at
# most 489 objects (so a per-coordinator allocation shows), no
# latency stream until something draws from one, no call-time cell until a
# call is timed into it (registering nine endpoints at most 4 KB), and one
# metric bundle per registry, not per coordinator or node.
#
# allocgate cuts a verbose run down to its verdict lines and fails the stage
# when one of them is a FAIL or none is a PASS: a pipeline's status is its
# last command's, and a bare grep for the verdicts passed whatever they were.
allocgate = -v -count=1 | awk '/PASS|FAIL|allocat/ { print } /FAIL/ { bad = 1 } /^--- PASS/ { ran = 1 } END { exit bad || !ran }'
check-allocs:
	$(GO) test -run 'TestHotMethodsDoNotAllocate|TestInlineSetOperationsDoNotAllocate' ./internal/nodeset/ $(allocgate)
	$(GO) test -run 'TestBoundAllocatesOnlyTheContext' ./internal/deadline/ $(allocgate)
	$(GO) test -run 'TestFlightRecorderCycleDoesNotAllocate|TestFlightRecorderFootprint|TestFlightRecorderLifetimeAllocs|TestSharedBuildsOncePerRegistryAndKey' ./internal/obs/ $(allocgate)
	$(GO) test -run 'TestOperationAllocationBudget|TestCombinerDrainDoesNotAllocate|TestGroupConstructionFootprint' ./internal/core/ $(allocgate)
	$(GO) test -run 'TestDecisionRingDoesNotAllocate|TestRefusedPushDoesNotAllocate|TestLockTableDoesNotAllocate|TestHandlerAllocationBudget|TestColdItemFootprint|TestQuietCoordinatorFootprint|TestNodesShareTheRegistryBundles' ./internal/replica/ $(allocgate)
	$(GO) test -run 'TestMuxDispatchDoesNotAllocate|TestMulticastFuncAllocs|TestOneWayDeliveryAllocs|TestLegsSteadyStateIsFree|TestLegsParkedBounded|TestLatencyStreamsAreMadeOnFirstDraw|TestCallCellsAreMadeOnFirstCall' ./internal/transport/ $(allocgate)
	$(GO) test -run 'TestAppendMarshalDoesNotAllocate|TestAppendTraceContextDoesNotAllocate|TestDecodeTraceContextDoesNotAllocate' ./internal/wire/ $(allocgate)
	$(GO) test -run 'TestRequestFrameEncodeDoesNotAllocate|TestReplyFrameEncodeDoesNotAllocate|TestFusedMessageEncodeDoesNotAllocate|TestRingFlushPathDoesNotAllocate|TestTracedRequestFrameEncodeDoesNotAllocate' ./internal/transport/tcpnet/ $(allocgate)
	$(GO) test -run 'TestZipfNextDoesNotAllocate' ./internal/workload/ $(allocgate)
	$(GO) test -run 'TestShardOfDoesNotAllocate' ./internal/placement/ $(allocgate)
	$(GO) test -run 'TestAliasPickAllocs' ./internal/coterie/ $(allocgate)
	$(GO) test -run 'TestOptimizedPickAllocs|TestMeasuredCapacityAllocs|TestPushPlanningDoesNotAllocate' ./internal/core/ $(allocgate)

# fuzz-smoke runs the wire-layer fuzzers briefly: every generated input
# must either fail to decode or round-trip byte-identically (the canonical-
# encoding property the propagation and client paths rely on), for the
# message codec, the trace-context field, and the full TCP request frame —
# and the packed decision ring against the 16-byte reference ring: every
# lookup of a decoded stream of records and queries must answer alike.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshal' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceContext' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzParseRequest' -fuzztime 5s ./internal/transport/tcpnet/
	$(GO) test -run '^$$' -fuzz 'FuzzDecisionRing' -fuzztime 5s ./internal/replica/

# loc prints the number of non-test Go lines in tracked files outside
# bench/ — the size ROADMAP tracks. Print-only; not part of ci.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:bench/*' | xargs cat | wc -l

# check-obs-imports enforces the obs data-plane discipline: internal/obs
# must not import fmt, log, os, io or encoding packages — formatting and
# exposition live in internal/obs/expose.
check-obs-imports:
	@bad=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/obs | grep -Ex 'fmt|log|os|io|encoding(/.*)?' || true); \
	if [ -n "$$bad" ]; then \
		echo "internal/obs imports forbidden data-plane packages:"; echo "$$bad"; exit 1; \
	fi; \
	echo "check-obs-imports: internal/obs is clean"

ci: vet check-fmt build test-cpu1 test-bench check-obs-imports check-allocs check-admin check-cluster fuzz-smoke race race-conflict race-legs bench-smoke check-clean
