# Tier-1 verification gate: static checks, a full build, the test
# suite under the race detector (the fault-tolerance layer is
# concurrency-heavy; -race is part of its acceptance criteria), and
# end-to-end smokes of the observability endpoints and the optimizer
# decision explainer.
.PHONY: verify test bench verify-perf obs-smoke explain-smoke verify-precision verify-async verify-attrib verify-dtrace verify-analysis fuzz

verify:
	go vet ./...
	go build ./...
	go test -race ./...
	$(MAKE) obs-smoke
	$(MAKE) explain-smoke
	$(MAKE) verify-precision
	$(MAKE) verify-async
	$(MAKE) verify-attrib
	$(MAKE) verify-dtrace
	$(MAKE) verify-analysis
	$(MAKE) fuzz

test:
	go test ./...

# End-to-end observability smoke: run a traced TCP cluster with the
# introspection server on an ephemeral port and have the process probe
# its own /healthz, /metrics and /trace (valid Chrome-trace JSON with
# events) before exiting. No curl or fixed port needed.
obs-smoke:
	go run ./cmd/rminode -sends 5 -obs-smoke

# Explain-pipeline smoke: compile every bundled example, emit the
# cormi-explain/1 decision report, and self-validate the schema
# invariants (a record per call site, witnesses on kept cycle checks,
# reuse verdicts on every value).
explain-smoke:
	go run ./cmd/rmic -explain-smoke

# Precision regression gate: run the full compiler over the MiniJP
# corpus (examples/minijp) and diff the per-site verdict matrix — and
# the context-insensitive baseline matrix — against the checked-in
# goldens, then re-prove the sensitivity gain in-process (strictly more
# elided cycle checks and reuse grants than the baseline). A precision
# regression fails; an intended improvement needs a reviewed golden
# update (UPDATE_GOLDEN=1 go test ./internal/harness -run TestVerdictMatrix).
verify-precision:
	go test -count=1 -run 'TestVerdictMatrix|TestPrecisionGain|TestContextBudgetBoundsBlowup|TestAnalysisDeterminism' ./internal/harness

# Async chaos gate: the chained futures + promise-pipelining workload
# must complete with exactly-once execution at every optimization
# level over a lossy (drop/dup/reorder/corrupt) interconnect, under
# the race detector. Proves a dropped producer frame is recovered by
# its waiter and a duplicated one cannot double-splice a promise.
verify-async:
	go test -race -count=1 -run 'TestChaosAsync' ./internal/harness

# Attribution gate: always-on tail-latency attribution must keep the
# traced hot path within its allocation budget with exemplar capture
# armed but not firing (the threshold floor is set astronomically high,
# so the armed comparison runs on every close and never trips); the
# log2 histogram merge must stay exact under the commutativity /
# associativity / quantile-preservation property tests; and the 3-node
# cluster scenario must blame the slow executor's execute phase and
# capture at least one slow-call exemplar through the real HTTP
# /snapshot -> /cluster pull path.
verify-attrib:
	go test -count=1 -run 'TestAttributionSteadyStateAllocs' ./internal/apps/micro
	go test -count=1 -run 'TestMerge|TestRunAttribBlamesSlowExecutor' ./internal/metrics ./internal/harness

# Distributed-tracing gate (DESIGN.md §15): head sampling must be free
# for the calls it does not pick (the armed untraced hot path holds the
# same 3-alloc budget as verify-attrib) and cheap for those it does
# (the sampled path's ceiling is pinned); and the 3-node harness
# scenario must reconstruct a pipelined depth-8 chain — through the
# real HTTP /traces -> /traces/<id>?peers= pull path — as exactly one
# tree with the topology's span/hop counts and a critical path
# accounting for the measured wall time.
verify-dtrace:
	go test -count=1 -run 'TestUntracedWithSamplingArmedAllocs|TestSampledPathAllocs' ./internal/apps/micro
	go test -count=1 -run 'TestDTraceChainReconstructsSingleTree|TestBuildTree' ./internal/harness ./internal/trace

# Analysis-at-scale gate (DESIGN.md §16): the 2k-function generated
# corpus must analyze inside the wall budget with the expected region
# structure and zero context-budget fallbacks; with >= 2 CPUs the
# parallel run must beat sequential by 2x (single-core machines skip
# the speedup measurement only). Bit-identity across worker counts is
# pinned by TestAnalysisDeterminism in verify-precision.
verify-analysis:
	go test -count=1 -run 'TestAnalysisCorpusGate|TestAnalysisParallelSpeedup' ./internal/harness

# Short native-fuzzing pass over the adversarial decode surfaces:
# the HELLO handshake decoder, the value/reference payload decoder,
# and the wire trace-context codec. Each target always replays its
# checked-in seed corpus (testdata/fuzz/) and then mutates for a few
# seconds. Properties: no panics, typed ErrMalformedFrame on every
# rejection, balanced read-context pool. Longer runs: FUZZTIME=10m make fuzz.
FUZZTIME ?= 5s
fuzz:
	go test -run '^$$' -fuzz FuzzDecodeHello -fuzztime $(FUZZTIME) ./internal/wire
	go test -run '^$$' -fuzz FuzzTraceContext -fuzztime $(FUZZTIME) ./internal/wire
	go test -run '^$$' -fuzz FuzzReadValues -fuzztime $(FUZZTIME) ./internal/serial

# Regenerate the human-readable Go benchmarks and the machine-readable
# perf baseline consumed by benchdiff (commit BENCH_rmibench.json when
# a perf change is intentional).
bench:
	go test -bench=. -benchmem -count=5 ./...
	go run ./cmd/rmibench -json > BENCH_rmibench.json

# Opt-in perf gate: measure a fresh report and compare it against the
# committed baseline. Fails on >10% ns/op growth or any allocs/op
# regression on any workload × optimization level row.
verify-perf: verify
	go run ./cmd/rmibench -json > /tmp/BENCH_rmibench.fresh.json
	go run ./cmd/benchdiff BENCH_rmibench.json /tmp/BENCH_rmibench.fresh.json
	rm -f /tmp/BENCH_rmibench.fresh.json
