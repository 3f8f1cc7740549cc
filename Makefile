# Development targets for the Marsit reproduction.
#
#   make check             fmt + vet + build + test + collective-listing golden
#                          + no-shims guard (what CI runs)
#   make race              race-detector pass over the concurrency-bearing
#                          packages
#   make benchmark W=<w>   the repository's benchmark (BENCHMARK.json): one
#                          workload of benchmark/run.sh — ring_marsit,
#                          ring_rar, mix_shm, train_marsit or fleet_tcp —
#                          with SEED, SECS and TRACE passed through; the
#                          basis of every performance claim
#                          (see docs/performance.md)
#   make ab A=<r> B=<r>    alternating parent/change pairs of that
#                          benchmark on two commits (tools/ab.sh): W=<w>
#                          as above or W=all for all five, PAIRS=10, SEED
#                          the first pair's seed; prints medians, the
#                          parent's spread, pairs won and a verdict per
#                          workload × end-to-end metric
#   make bench-smoke       the kernel micro-benchmarks (MatchRate and NormVec
#                          beside their oracles among them), the sequential
#                          one-bit Sync (ring and torus), the batched and
#                          per-sample forward/backward at the train_marsit
#                          workload's shape and one trainer round once
#                          (-benchtime=1x) so they are compiled and executed
#                          on every PR
#   make fuzz-smoke        short fuzz pass over the Elias wire coder, the
#                          bit-vector frame decoder and the sign-sum chunk
#                          decoders on hostile bytes, the word-parallel
#                          bitvec/Elias kernels (the Elias word-store
#                          encoder at every buffer edge included), the
#                          masked Bernoulli lanes, the word-at-a-time ⊙
#                          merge and the bit-sliced majority vote vs their
#                          scalar oracles, and the PowerSGD Gram–Schmidt
#                          orthonormalization on degenerate inputs
#   make list-collectives  golden check: the CLIs' collective listing must
#                          match docs/collectives.golden, so help text cannot
#                          drift from the registry
#   make tcp-demo          4-rank multi-process Marsit run over local TCP,
#                          verified bit-for-bit against the sequential engine
#   make shm-demo          4-rank multi-process Marsit run over the
#                          shared-memory fabric (mmap'd rings, zero sockets
#                          on the gradient path), verified bit-for-bit
#                          against the sequential engine
#                          (see docs/transport.md)
#   make tree-demo         4-rank tree all-reduce fleet over local TCP,
#                          verified bit-for-bit against the sequential engine
#   make trace-demo        the tcp-demo fleet with telemetry on: per-rank
#                          Chrome traces validated, /metrics scraped live
#                          (see docs/observability.md)
#   make calib-demo        the tcp-demo fleet with -calibrate and injected
#                          send jitter: still bit-identical to the
#                          sequential engine, rank 0 prints the
#                          predicted-vs-measured calibration table, and
#                          the /metrics scrape carries the calibration
#                          series (see docs/performance.md)
#   make service-demo      4-rank daemon fleet (marsit-node -daemon): two
#                          overlapping jobs submitted through marsit-ctl,
#                          one jittered, both verified bit-for-bit against
#                          the sequential engine on the shared live fabric;
#                          the /metrics scrape must show both in flight at
#                          once (see docs/service.md)

GO ?= go

.PHONY: check fmt vet build test race benchmark ab bench-smoke fuzz-smoke list-collectives no-shims tcp-demo shm-demo tree-demo trace-demo calib-demo service-demo

check: fmt vet build test list-collectives no-shims

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

# ./internal/transport/... covers the shm and hybrid fabrics — the
# mmap-ring publish/consume protocol and the composite routing are
# exactly the code the race detector must see.
race:
	$(GO) test -race . ./internal/runtime/... ./internal/transport/... \
		./internal/core/... ./internal/rng/... ./internal/train/... \
		./internal/node/... ./internal/collective/registry/... \
		./internal/obs/... ./internal/calib/... ./internal/service/...

# benchmark runs one workload of the repository's benchmark exactly as
# the PR driver does (benchmark/run.sh builds what it runs under
# .bench_build/ and prints the metrics BENCHMARK.json declares).
W ?= ring_marsit
SEED ?= 1
SECS ?= 15
TRACE ?= 0

benchmark:
	bash benchmark/run.sh --workload $(W) --seed $(SEED) --seconds $(SECS) --trace $(TRACE)

# ab measures commit B against commit A the way docs/performance.md
# requires of a claim: PAIRS alternating runs of each ref's own
# benchmark/run.sh with shared seeds SEED, SEED+1, …, on workload W or,
# with W=all, on all five. SECS other than BENCHMARK.json's run_seconds is
# for smoke-testing the script; the output says so.
A ?= HEAD~1
B ?= HEAD
PAIRS ?= 10

ab:
	SEED=$(SEED) SECS=$(SECS) bash tools/ab.sh $(A) $(B) $(W) $(PAIRS)

# bench-smoke runs the word-parallel kernels' micro-benchmarks (fast
# path vs scalar oracle), the micro-benchmarks of Algorithm 1's own
# code (core's BenchmarkSyncOneBitRing/Torus, train's
# BenchmarkTrainRoundMarsit) and of the trainer's local step (nn's
# BenchmarkLossGradBatch: MLP 192→384→64→10, B = 8, batched vs the
# per-sample loop) exactly once: cheap enough for CI, and it proves the
# tools for measuring while working still compile and run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/bitvec ./internal/compress ./internal/rng \
		./internal/tensor ./internal/nn ./internal/core ./internal/train

# fuzz-smoke gives the wire-facing decoders a short adversarial pass —
# Elias payloads, marshalled bit vectors and sign-sum chunks genuinely
# travel TCP frames in the distributed collectives, so no decoder may
# panic on hostile bytes (the chunk decoders only by name, with the rank
# and the peer) — and drives every word-parallel kernel against its
# scalar oracle.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzEliasIntsRoundTrip' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzEliasDecodeRobust' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzEliasIntsIntoAgainstScalar' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzEliasEncodeBufAgainstScalar' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzSignSumChunkRobust' -fuzztime $(FUZZTIME) ./internal/runtime
	$(GO) test -run '^$$' -fuzz 'FuzzPackUnpackSigns' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzExtractInsert' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzMarshalRoundTrip' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalRobust' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzMajorityAgainstScalar' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzBernoulliLanesMasked' -fuzztime $(FUZZTIME) ./internal/rng
	$(GO) test -run '^$$' -fuzz 'FuzzMergeSignsAgainstScalar' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzGramSchmidt' -fuzztime $(FUZZTIME) ./internal/collective

# list-collectives pins the registry-generated discovery listing (the
# same lines marsit-node/marsit-bench print for -list-collectives) to
# docs/collectives.golden: registering, renaming or re-documenting a
# collective must update the golden file in the same change, so CLI help
# cannot drift from the registry.
list-collectives:
	$(GO) build -o bin/marsit-node ./cmd/marsit-node
	@./bin/marsit-node -list-collectives | diff -u docs/collectives.golden - \
		|| { echo "list-collectives: registry listing drifted from docs/collectives.golden"; \
		     echo "  (regenerate with: ./bin/marsit-node -list-collectives > docs/collectives.golden)"; exit 1; }
	@echo "list-collectives: listing matches docs/collectives.golden"

# no-shims keeps a retired API retired: a "Deprecated:" marker in
# non-test Go means a compatibility layer is growing back beside the
# registry dispatch path (Engine.Open + Collective.Run) instead of its
# callers being ported.
no-shims:
	@out="$$(grep -rn 'Deprecated:' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . || true)"; \
	if [ -n "$$out" ]; then \
		echo "no-shims: Deprecated: markers in non-test Go:"; echo "$$out"; exit 1; \
	fi
	@echo "no-shims: no Deprecated: markers"

# tcp-demo launches one marsit-node process per rank on fixed local
# ports; rank 0 gathers every rank's result, wire bytes and virtual
# clock, replays the run on the sequential engine, and exits non-zero
# unless everything is bit-identical.
TCP_DEMO_PEERS := 127.0.0.1:7741,127.0.0.1:7742,127.0.0.1:7743,127.0.0.1:7744

tcp-demo:
	$(GO) build -o bin/marsit-node ./cmd/marsit-node
	@pids=""; \
	for r in 1 2 3; do \
		./bin/marsit-node -rank $$r -peers $(TCP_DEMO_PEERS) \
			-collective marsit -dim 4096 -rounds 8 -k 4 -check -quiet & \
		pids="$$pids $$!"; \
	done; \
	status=0; \
	./bin/marsit-node -rank 0 -peers $(TCP_DEMO_PEERS) \
		-collective marsit -dim 4096 -rounds 8 -k 4 -check || status=$$?; \
	for p in $$pids; do wait $$p || status=$$?; done; \
	if [ $$status -ne 0 ]; then echo "tcp-demo: FAILED"; exit $$status; fi; \
	echo "tcp-demo: 4-rank TCP fabric matches the sequential engine"

# shm-demo launches one marsit-node process per rank like tcp-demo, but
# the gradient path runs entirely over mmap'd shared-memory rings in a
# throwaway rendezvous dir — the peer list only sizes the fleet. Rank 0
# replays the run on the sequential engine and exits non-zero unless
# everything is bit-identical.
SHM_DEMO_PEERS := 127.0.0.1:7901,127.0.0.1:7902,127.0.0.1:7903,127.0.0.1:7904

shm-demo:
	$(GO) build -o bin/marsit-node ./cmd/marsit-node
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	pids=""; \
	for r in 1 2 3; do \
		./bin/marsit-node -rank $$r -peers $(SHM_DEMO_PEERS) \
			-transport shm -shm-dir "$$dir" \
			-collective marsit -dim 4096 -rounds 8 -k 4 -check -quiet & \
		pids="$$pids $$!"; \
	done; \
	status=0; \
	./bin/marsit-node -rank 0 -peers $(SHM_DEMO_PEERS) \
		-transport shm -shm-dir "$$dir" \
		-collective marsit -dim 4096 -rounds 8 -k 4 -check || status=$$?; \
	for p in $$pids; do wait $$p || status=$$?; done; \
	if [ $$status -ne 0 ]; then echo "shm-demo: FAILED"; exit $$status; fi; \
	echo "shm-demo: 4-rank shared-memory fabric matches the sequential engine"

# tree-demo runs the binary-tree all-reduce across a real 4-process TCP
# fleet (an incomplete tree: rank 3 is the lone grandchild, so the
# subtree weights are unbalanced) and verifies results, wire bytes and
# virtual clocks bit-for-bit against the sequential engine.
TREE_DEMO_PEERS := 127.0.0.1:7801,127.0.0.1:7802,127.0.0.1:7803,127.0.0.1:7804

tree-demo:
	$(GO) build -o bin/marsit-node ./cmd/marsit-node
	@pids=""; \
	for r in 1 2 3; do \
		./bin/marsit-node -rank $$r -peers $(TREE_DEMO_PEERS) \
			-collective tree -dim 4096 -rounds 8 -check -quiet & \
		pids="$$pids $$!"; \
	done; \
	status=0; \
	./bin/marsit-node -rank 0 -peers $(TREE_DEMO_PEERS) \
		-collective tree -dim 4096 -rounds 8 -check || status=$$?; \
	for p in $$pids; do wait $$p || status=$$?; done; \
	if [ $$status -ne 0 ]; then echo "tree-demo: FAILED"; exit $$status; fi; \
	echo "tree-demo: 4-rank tree fabric matches the sequential engine"

# trace-demo is the telemetry acceptance run: the tcp-demo fleet with
# per-rank Chrome traces and rank 0 serving /metrics, which a poller
# scrapes over real HTTP while the fleet runs (-metrics-linger keeps the
# endpoint up long enough). The run must still verify bit-for-bit
# against the sequential engine, every trace file must parse as
# non-empty trace_event JSON (-validate-trace), and the scrape must
# carry the per-peer transport counters.
TRACE_DEMO_PEERS := 127.0.0.1:7761,127.0.0.1:7762,127.0.0.1:7763,127.0.0.1:7764
TRACE_DEMO_METRICS := 127.0.0.1:9696

trace-demo:
	$(GO) build -o bin/marsit-node ./cmd/marsit-node
	@rm -f bin/trace-demo-rank*.json bin/trace-demo-metrics.txt; \
	pids=""; \
	for r in 1 2 3; do \
		./bin/marsit-node -rank $$r -peers $(TRACE_DEMO_PEERS) \
			-collective marsit -dim 4096 -rounds 8 -k 4 -check -quiet \
			-trace bin/trace-demo-rank$$r.json & \
		pids="$$pids $$!"; \
	done; \
	( i=0; while [ $$i -lt 100 ]; do \
		curl -sf http://$(TRACE_DEMO_METRICS)/metrics -o bin/trace-demo-metrics.txt \
			&& exit 0; i=$$((i+1)); sleep 0.1; \
	  done; echo "trace-demo: /metrics never answered"; exit 1 ) & poller=$$!; \
	status=0; \
	./bin/marsit-node -rank 0 -peers $(TRACE_DEMO_PEERS) \
		-collective marsit -dim 4096 -rounds 8 -k 4 -check -quiet \
		-trace bin/trace-demo-rank0.json \
		-metrics-addr $(TRACE_DEMO_METRICS) -metrics-linger 3s || status=$$?; \
	for p in $$pids; do wait $$p || status=$$?; done; \
	wait $$poller || status=$$?; \
	if [ $$status -ne 0 ]; then echo "trace-demo: FAILED"; exit $$status; fi; \
	./bin/marsit-node -validate-trace \
		bin/trace-demo-rank0.json bin/trace-demo-rank1.json \
		bin/trace-demo-rank2.json bin/trace-demo-rank3.json || exit 1; \
	grep -q marsit_transport_wire_sent_bytes_total bin/trace-demo-metrics.txt \
		|| { echo "trace-demo: scrape is missing transport counters"; exit 1; }; \
	echo "trace-demo: traces valid, /metrics served the transport counters"

# calib-demo is the calibration-harness acceptance run: the tcp-demo
# fleet with -calibrate (wall-clock phase timers + the predicted-vs-
# measured gather) and real injected send jitter on every rank. The run
# must still verify bit-for-bit against the sequential engine (delay
# injection moves wall time only), rank 0 must print the calibration
# table, and the live /metrics scrape must carry the calibration series.
CALIB_DEMO_PEERS := 127.0.0.1:7781,127.0.0.1:7782,127.0.0.1:7783,127.0.0.1:7784
CALIB_DEMO_METRICS := 127.0.0.1:9697

calib-demo:
	$(GO) build -o bin/marsit-node ./cmd/marsit-node
	@rm -f bin/calib-demo-rank0.txt bin/calib-demo-metrics.txt; \
	pids=""; \
	for r in 1 2 3; do \
		./bin/marsit-node -rank $$r -peers $(CALIB_DEMO_PEERS) \
			-collective marsit -dim 4096 -rounds 8 -k 4 -calibrate -quiet \
			-jitter 200us -jitter-seed $$r & \
		pids="$$pids $$!"; \
	done; \
	( i=0; while [ $$i -lt 100 ]; do \
		curl -sf http://$(CALIB_DEMO_METRICS)/metrics -o bin/calib-demo-metrics.txt \
			&& exit 0; i=$$((i+1)); sleep 0.1; \
	  done; echo "calib-demo: /metrics never answered"; exit 1 ) & poller=$$!; \
	status=0; \
	./bin/marsit-node -rank 0 -peers $(CALIB_DEMO_PEERS) \
		-collective marsit -dim 4096 -rounds 8 -k 4 -calibrate -quiet \
		-jitter 200us -jitter-seed 4 \
		-metrics-addr $(CALIB_DEMO_METRICS) -metrics-linger 3s \
		> bin/calib-demo-rank0.txt || status=$$?; \
	for p in $$pids; do wait $$p || status=$$?; done; \
	wait $$poller || status=$$?; \
	if [ $$status -ne 0 ]; then echo "calib-demo: FAILED"; cat bin/calib-demo-rank0.txt; exit $$status; fi; \
	grep -q "verified vs sequential engine" bin/calib-demo-rank0.txt \
		|| { echo "calib-demo: rank 0 did not verify the fabric"; cat bin/calib-demo-rank0.txt; exit 1; }; \
	grep -q "Calibration" bin/calib-demo-rank0.txt \
		|| { echo "calib-demo: rank 0 printed no calibration table"; cat bin/calib-demo-rank0.txt; exit 1; }; \
	grep -q marsit_calib_wall_seconds_total bin/calib-demo-metrics.txt \
		|| { echo "calib-demo: scrape is missing the calibration series"; exit 1; }; \
	grep -q marsit_faultwrap_delays_total bin/calib-demo-metrics.txt \
		|| { echo "calib-demo: scrape is missing the faultwrap counters"; exit 1; }; \
	echo "calib-demo: jittered fleet verified bit-for-bit; calibration table + /metrics series served"

# service-demo is the multi-tenant acceptance run: a 4-rank daemon fleet
# comes up once, marsit-ctl submits two jobs that overlap on the shared
# live fabric — different collectives, one under injected send jitter —
# and both must verify bit-for-bit against the sequential engine. The
# in-flight peak gauge proves they genuinely overlapped (jobs count from
# submission to completion), and the fleet shuts down over the control
# plane, every rank exiting zero.
SERVICE_DEMO_PEERS := 127.0.0.1:7821,127.0.0.1:7822,127.0.0.1:7823,127.0.0.1:7824
SERVICE_DEMO_METRICS := 127.0.0.1:9698

service-demo:
	$(GO) build -o bin/marsit-node ./cmd/marsit-node
	$(GO) build -o bin/marsit-ctl ./cmd/marsit-ctl
	@rm -f bin/service-demo-*.txt; \
	pids=""; \
	for r in 1 2 3; do \
		./bin/marsit-node -rank $$r -peers $(SERVICE_DEMO_PEERS) -daemon -quiet & \
		pids="$$pids $$!"; \
	done; \
	./bin/marsit-node -rank 0 -peers $(SERVICE_DEMO_PEERS) -daemon -quiet \
		-metrics-addr $(SERVICE_DEMO_METRICS) & leader=$$!; \
	i=0; until curl -sf http://$(SERVICE_DEMO_METRICS)/metrics -o /dev/null; do \
		i=$$((i+1)); \
		[ $$i -lt 100 ] || { echo "service-demo: control plane never answered"; exit 1; }; \
		sleep 0.1; \
	done; \
	status=0; \
	./bin/marsit-ctl -addr http://$(SERVICE_DEMO_METRICS) submit \
		-collective rar -dim 257 -rounds 200 -check -jitter-ms 1 -wait \
		> bin/service-demo-job1.txt 2>&1 & job1=$$!; \
	./bin/marsit-ctl -addr http://$(SERVICE_DEMO_METRICS) submit \
		-collective hier -dim 128 -rounds 150 -check -wait \
		> bin/service-demo-job2.txt 2>&1 & job2=$$!; \
	wait $$job1 || status=1; \
	wait $$job2 || status=1; \
	curl -sf http://$(SERVICE_DEMO_METRICS)/metrics -o bin/service-demo-metrics.txt || status=1; \
	cat bin/service-demo-job1.txt bin/service-demo-job2.txt; \
	grep -q "verified vs sequential engine" bin/service-demo-job1.txt \
		|| { echo "service-demo: job 1 was not verified"; status=1; }; \
	grep -q "verified vs sequential engine" bin/service-demo-job2.txt \
		|| { echo "service-demo: job 2 was not verified"; status=1; }; \
	grep -q "^marsit_jobs_in_flight_peak 2" bin/service-demo-metrics.txt \
		|| { echo "service-demo: the two jobs never overlapped (peak != 2)"; status=1; }; \
	grep -q "^marsit_jobs_in_flight 0" bin/service-demo-metrics.txt \
		|| { echo "service-demo: jobs-in-flight did not return to zero"; status=1; }; \
	./bin/marsit-ctl -addr http://$(SERVICE_DEMO_METRICS) shutdown || status=1; \
	wait $$leader || status=1; \
	for p in $$pids; do wait $$p || status=1; done; \
	if [ $$status -ne 0 ]; then echo "service-demo: FAILED"; exit 1; fi; \
	echo "service-demo: two overlapping jobs verified bit-for-bit on one live daemon fleet"
