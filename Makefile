# Developer entry points. `make check` is the local gate: gofmt, vet, the
# full test suite, the race-instrumented run, the nested benchmark module
# and the un-shortened transport suite (which carries the fault layer). CI
# runs each of these once: its `check` job runs `make fmt`, `make vet test
# race` and `make bench-module` and leaves transport-suite to the dedicated
# `transport-suite` job (ci.yml), so the suite is not run twice per push.
# Beyond `check`, CI also runs `make smoke`, `make decomp-suite` (its own
# job) and `make bench-record`. The race target uses -short so
# the heavyweight differential sweeps keep the instrumented run fast; drop
# the flag (make race SHORT=) for the exhaustive version.

SHORT ?= -short
# Per-benchmark budget for `make bench` and `make bench-scale` (any
# go-test -benchtime value: durations like 2s or fixed counts like 3x;
# BENCHTIME=1x gives a single pass of each size).
BENCHTIME ?= 1s

.PHONY: build fmt vet test race check bench bench-record bench-module bench-scale fuzz smoke transport-suite decomp-suite

build:
	go build ./...

# Fails, naming the files, when gofmt would rewrite any Go file in the
# tree (the nested benchmark module included).
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# The second line vets the two packages with an assembly body for amd64
# (rngutil's column fill and randomwalk's move kernel) as built for arm64,
# so both portable fallbacks and their build tags compile on every run;
# the first line's asmdecl check holds both assembly frames to their Go
# declarations.
vet:
	go vet ./...
	GOARCH=arm64 go vet ./internal/rngutil ./internal/randomwalk

test:
	go test ./...

race:
	go test -race $(SHORT) ./...

check: fmt vet test race bench-module transport-suite

# End-to-end smoke of every experiment driver: build each cmd/ binary, run
# it at tiny scale with -trace, and check the trace lands non-empty.
smoke:
	sh scripts/smoke.sh

# The transport suite, race-instrumented and never shortened: every test
# of the transport tier and of the packages it stands on, run whole so a
# new test cannot fall between hand-kept -run lists. It covers the
# differential parity matrix (every workload × shard count × seed over
# loopback TCP, goroutine-mode shards AND real cmd/tcpnode processes,
# trace-byte-identical to the sequential engine), shard death/stall
# surfacing as attributed errors within the deadline, the state-machine
# sweep (hostile_test.go: a cut at every frame boundary of a short run ×
# five workloads × shards {2,3}, scripted hostile peers and replies — about
# 20 s of the transport package's 45 s under -race), the fault layer's
# determinism contract (the differential fault tests across both engines
# and all worker counts), faults over the wire (golden fault traces over
# proc and tcp at shards 1/2/4, per-shard counts summing to the
# in-process totals, the walk re-issue / windowed-GHS recovery stories
# including a killed-and-recovering shard), the payload codec (the golden
# bytes of every family, the contract test over every registered
# workload, Register's refusals: internal/transport/workloads), and
# observability (the -obsout document on every exit path, the TELEMETRY
# ship-back reaching the coordinator's registry,
# the flight-recorder ring contract, trace parity with full telemetry).
# The hard -timeout keeps a wedged coordinator from hanging CI.
transport-suite:
	go test -race -timeout 300s ./internal/transport/... ./internal/flightrec ./internal/faults ./internal/congest

# The cluster-scoped-tier suite, race-instrumented and never shortened:
# every test of the decomposition, of the three embedded packages it
# feeds, of the Borůvka kernel mst.RunPartitioned's stitch and direct
# tiers stand on (mstbase, cliquealgo: seconds) and of the layers under
# all of them — the graph's CSR and the walk engine, whose network-walk
# differential test shrinks to one seed and whose steady-round gate skips
# under -short, so `make race` never runs them whole, and the path
# scheduler every overlay's emulation cost comes from — run whole so a new
# test cannot fall between hand-kept -run lists. The stitched router must
# deliver every packet deterministically, the stitched MST must reproduce
# Kruskal's exact edge set (the correctness contract of DESIGN.md §3's
# decomposition section), and concurrent runs filling one hierarchy's
# leaf route rows must each match their serial run. The concurrency tests
# of the scheduler and the router then run ten more times: both take
# their working memory from sync.Pools, which the race runtime empties at
# random, so repeats reach both the reused and the fresh paths.
decomp-suite:
	go test -race -timeout 600s ./internal/graph ./internal/randomwalk ./internal/pathsched ./internal/decomp ./internal/embed ./internal/route ./internal/mst ./internal/mstbase ./internal/cliquealgo
	go test -race -count=10 -timeout 600s -run 'Concurrent' ./internal/pathsched ./internal/route

bench:
	go test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./...

# The perf record: every workload of the repo benchmark at seed 1, with
# the traced pass, into benchmark/out/bench.json and out/trace.json (about
# two minutes). It fails on failed ops, never on wall metrics. The
# committed predecessor is bench/baseline.json; bench/README.md says how
# to compare against it and when to replace it.
bench-record:
	go run -C benchmark almostmix/benchmark -seed 1 -trace 1 -out out/bench.json

# The repo benchmark (benchmark/, see BENCHMARK.json) is a nested module
# the root build, vet and test do not see: vet and test it against the
# root module so an API change that breaks it fails here, not at the next
# benchmark run.
bench-module:
	go vet -C benchmark ./... && go test -C benchmark ./...

# E16 engine scale sweep: ticker broadcasts on ring lattices at
# n ∈ {1e4, 1e5, 1e6}, one part and eight. ns/msg must stay essentially
# flat, the one-part run must report 0 allocs/op, and B/port is the arena
# bytes per directed port (56: a 24-byte outbox record and a 32-byte inbox
# slot). The 1e6 points peak at 1.1 GB resident — 450 MB of arenas, the
# rest the graph (its CSR and edge list), the engine's peer table and the
# contexts — and take a few seconds each;
# BENCHTIME=1x make bench-scale for one pass.
bench-scale:
	go test -run '^$$' -bench BenchmarkCongestEngineScale -benchmem -benchtime $(BENCHTIME) .

# Continuous fuzzing of the simulator's round engines, of the wire
# parsers, of the walk engine's dense step against its touched-list step,
# of the walk move pass's assembly kernel against its scalar loop,
# of the walk node program's queues against their reference and of the
# path scheduler's two doors against its reference (30s each; the committed f.Add corpora always run as part of
# `make test`). go test -fuzz takes one target of one package at a time.
fuzz:
	go test -run '^$$' -fuzz FuzzNetworkRun -fuzztime 30s ./internal/congest
	go test -run '^$$' -fuzz FuzzReadFrame -fuzztime 30s ./internal/transport
	go test -run '^$$' -fuzz FuzzParseReplies -fuzztime 30s ./internal/transport
	go test -run '^$$' -fuzz FuzzAbsorbReplies -fuzztime 30s ./internal/transport
	go test -run '^$$' -fuzz FuzzStepSection -fuzztime 30s ./internal/transport
	go test -run '^$$' -fuzz FuzzPayload -fuzztime 30s ./internal/transport/workloads
	go test -run '^$$' -fuzz FuzzRunSteps -fuzztime 30s ./internal/randomwalk
	go test -run '^$$' -fuzz FuzzMoveVector -fuzztime 30s ./internal/randomwalk
	go test -run '^$$' -fuzz FuzzWalkPrograms -fuzztime 30s ./internal/randomwalk
	go test -run '^$$' -fuzz FuzzSchedule -fuzztime 30s ./internal/pathsched
