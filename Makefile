# Development targets for the Marsit reproduction.
#
#   make check             fmt + vet + build + test + collective-listing golden
#                          + no-shims and single-path guards (one place
#                          each for endpoint I/O, clocks, rendezvous
#                          waits, ring/torus schedules, α–β hops, tree
#                          level loops, the trainer's synchronizer and
#                          the densifier) + dead-code golden + the
#                          portable build (what CI runs)
#   make race              race-detector pass over the concurrency-bearing
#                          packages (the lane helper in internal/tensor and
#                          the range-split optimizer steps included)
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
#                          beside their oracles among them; SubScaled and
#                          the bit-vector MatchCount beside the dense forms
#                          they replace, and PackSignsOfSubSum beside the
#                          SubScaled + PackSignsOfSum passes it fuses), the
#                          sequential one-bit Sync (ring
#                          and torus) and SyncUpdate at the train_marsit
#                          shape (BenchmarkSyncUpdateTrainShape: M = 4,
#                          D = 99 402, K = 0, on lanes), the batched and
#                          per-sample forward/backward at the train_marsit
#                          workload's shape, one trainer round and the
#                          whole train_marsit job (BenchmarkTrainJob,
#                          ms/step) and one Collective.Run of marsit,
#                          rar, tar on a 2×2 torus, cascading and Elias
#                          signsum
#                          (BenchmarkCollectiveRun: loopback, M = 4,
#                          D = 2^16, B/op) once (-benchtime=1x) so they
#                          are compiled and executed on every change
#   make fuzz-smoke        short fuzz pass over the Elias wire coder, the
#                          bit-vector frame decoder, the sign-sum chunk
#                          decoders and the sign-frame decoders (PS hub
#                          and cascading hops) on hostile bytes, the SSDM
#                          word kernel against its per-element oracle on
#                          NaN, ±Inf, ±0 and one-hot inputs, the
#                          word-parallel bitvec/Elias kernels (the Elias word-store
#                          encoder at every buffer edge and the multi-code
#                          table decoder included), the
#                          masked Bernoulli lanes, the word-at-a-time ⊙
#                          merge, the bit-sliced majority vote and the
#                          one-bit update's SubScaled/MatchCount vs their
#                          scalar oracles (and PackSignsOfSubSum vs
#                          SubScaled + PackSignsOfSum), and the PowerSGD Gram–Schmidt
#                          orthonormalization on degenerate inputs
#   make list-collectives  golden check: the CLIs' collective listing must
#                          match docs/collectives.golden, so help text cannot
#                          drift from the registry
#   make deadcode          golden check: the functions under internal/ that
#                          no program reaches must match
#                          tools/deadcode.golden (tools/deadcode.sh)
#   make portable          the code amd64 never compiles: vet for a
#                          big-endian target (s390x), a 32-bit (386)
#                          build, and the bit-vector, compression and
#                          full-precision equivalence tests under 386,
#                          which run the portable float codec
#   make tcp-demo          4-rank multi-process Marsit runs over local TCP,
#                          a ring and README's 2×2 torus, each verified
#                          bit-for-bit against the sequential engine
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

GO ?= go

.PHONY: check fmt vet build test race benchmark ab bench-smoke fuzz-smoke list-collectives no-shims single-path deadcode portable tcp-demo shm-demo tree-demo trace-demo calib-demo

check: fmt vet build test list-collectives no-shims single-path deadcode portable

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
# exactly the code the race detector must see. ./internal/tensor/...
# holds ForLanes, the fork-join the trainer and the lock-step Marsit
# share, and ./internal/optim/... the range-split steps that run on it.
race:
	$(GO) test -race . ./internal/runtime/... ./internal/transport/... \
		./internal/core/... ./internal/rng/... ./internal/train/... \
		./internal/tensor/... ./internal/optim/... \
		./internal/node/... ./internal/collective/registry/... \
		./internal/obs/... ./internal/calib/...

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
# path vs scalar oracle, bitvec's BenchmarkSubScaled and
# BenchmarkMatchCountSigns: the one-bit update read from bits vs the dense
# vector, and BenchmarkPackSignsOfSubSum: one round's line 10 and the next
# round's line 1 in one pass vs SubScaled then PackSignsOfSum), the
# micro-benchmarks of Algorithm 1's own code (core's
# BenchmarkSyncOneBitRing/Torus, BenchmarkSyncUpdateTrainShape — one
# one-bit SyncUpdate at the trainer's M = 4, D = 99 402 on the lanes
# GOMAXPROCS allows — and train's BenchmarkTrainRoundMarsit), of
# the trainer's local step (nn's BenchmarkLossGradBatch: MLP
# 192→384→64→10, B = 8, batched vs the per-sample loop) and of the
# train_marsit job itself (train's BenchmarkTrainJob: 120 rounds at
# M = 4 on the lanes GOMAXPROCS allows, reported as ms/step) and of the
# engine's dispatcher (runtime's BenchmarkCollectiveRun: one
# Collective.Run of each of its five collectives on loopback at M = 4,
# D = 2^16, with B/op — one shared g_t a one-bit round) exactly once:
# cheap enough for CI, and it proves the tools for measuring while
# working still compile and run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/bitvec ./internal/compress ./internal/rng \
		./internal/tensor ./internal/nn ./internal/core ./internal/train ./internal/runtime

# fuzz-smoke gives the wire-facing decoders a short adversarial pass —
# Elias payloads, marshalled bit vectors, sign-sum chunks and sign frames
# genuinely travel TCP frames in the distributed collectives, so no
# decoder may panic on hostile bytes (the chunk decoders only by name,
# with the rank and the peer; the sign-frame decoders naming the
# sign-scale payload) — and drives every word-parallel kernel against
# its scalar oracle.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzEliasIntsRoundTrip' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzEliasDecodeRobust' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzEliasIntsIntoAgainstScalar' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzEliasEncodeBufAgainstScalar' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzEliasTableAgainstScalar' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzSignSumChunkRobust' -fuzztime $(FUZZTIME) ./internal/runtime
	$(GO) test -run '^$$' -fuzz 'FuzzSignFrameRobust' -fuzztime $(FUZZTIME) ./internal/runtime
	$(GO) test -run '^$$' -fuzz 'FuzzPackUnpackSigns' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzExtractInsert' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzMarshalRoundTrip' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalRobust' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzMajorityAgainstScalar' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzSignKernelsAgainstScalar' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz 'FuzzBernoulliLanesMasked' -fuzztime $(FUZZTIME) ./internal/rng
	$(GO) test -run '^$$' -fuzz 'FuzzMergeSignsAgainstScalar' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzGramSchmidt' -fuzztime $(FUZZTIME) ./internal/collective
	$(GO) test -run '^$$' -fuzz 'FuzzSSDMBitsAgainstScalar' -fuzztime $(FUZZTIME) ./internal/collective

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

# single-path keeps rankCtx the one code in internal/runtime that
# touches an endpoint or a clock: an endpoint Send or Recv outside
# rankCtx.post/take, or a time.Now() outside rankCtx.begin and RunRank,
# would be a frame no trace shows or a span no timer bounds. Its second
# rule keeps transport.Retry the one rendezvous wait of the wire
# fabrics: outside the shm data path's waiter.wait and Close's drain, a
# time.Sleep in non-test tcp or shm code is a fixed poll. Its third rule
# keeps one ring/torus schedule per payload and engine: in non-test
# internal/core, runtime and collective code (registry and equivtest
# aside), an `if … Torus != nil {`, a `case … tor != nil:` or an
# `if cols == 1 {` is a second schedule beside the one that takes a nil
# torus as the flat ring. Its fourth rule keeps one hop and one tree
# schedule: in non-test internal/runtime code outside engine.go, a
# BytePeriod or Model.Latency is an α–β charge written by hand beside
# rankCtx's (a one-way hop is rankCtx.push/pull), and in non-test
# internal/core, runtime and collective code a .Depth( outside
# collective.TreeSchedule is a second level-by-level tree loop. Its
# fifth rule keeps one synchronizer path: a core.New or core.MustNew in
# non-test internal/train is a synchronizer opened beside
# core.OpenCollective, and a .Dense() in non-test internal/runtime,
# internal/train or internal/core/register.go is a []Update made vectors
# outside registry.Dense.
single-path:
	@out="$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[ \t]*\/\// { next } \
		/\.(Send|Recv)\(/ && fn !~ /^func \(r \*rankCtx\) (post|take)\(/ { print FILENAME ":" FNR ": " $$0 } \
		/time\.Now\(\)/ && fn !~ /^func (\(r \*rankCtx\) begin|RunRank)\(/ { print FILENAME ":" FNR ": " $$0 }' \
		$$(ls internal/runtime/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$out" ]; then \
		echo "single-path: endpoint I/O or a clock read outside rankCtx.post/take/begin and RunRank:"; echo "$$out"; exit 1; \
	fi
	@echo "single-path: every frame and every timer goes through rankCtx"
	@out="$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[ \t]*\/\// { next } \
		/time\.Sleep\(/ && !(FILENAME ~ /\/shm\// && fn ~ /^func \((w \*waiter\) wait|f \*Fabric\) drain)\(/) { \
			name = fn; sub(/^func (\([^)]*\) )?/, "", name); sub(/\(.*/, "", name); \
			print FILENAME ":" FNR ": in " name ": " $$0 }' \
		$$(ls internal/transport/tcp/*.go internal/transport/shm/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$out" ]; then \
		echo "single-path: a fixed sleep in the tcp or shm fabric outside shm's waiter.wait and drain (wait through transport.Retry):"; echo "$$out"; exit 1; \
	fi
	@echo "single-path: every rendezvous wait goes through transport.Retry"
	@out="$$(awk '/^[ \t]*\/\// { next } \
		/(Torus|tor) != nil( \{|:)$$|cols == 1 \{/ { print FILENAME ":" FNR ": " $$0 }' \
		$$(ls internal/core/*.go internal/runtime/*.go internal/collective/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$out" ]; then \
		echo "single-path: a ring/torus fork above a schedule (pass the torus, nil for the ring):"; echo "$$out"; exit 1; \
	fi
	@echo "single-path: each payload has one ring/torus schedule per engine, a nil torus the ring"
	@out="$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[ \t]*\/\// { next } \
		FILENAME ~ /\/runtime\// && FILENAME !~ /\/engine\.go$$/ && /BytePeriod|Model\.Latency/ { print FILENAME ":" FNR ": " $$0 } \
		/\.Depth\(/ && fn !~ /^func TreeSchedule\(/ { print FILENAME ":" FNR ": " $$0 }' \
		$$(ls internal/core/*.go internal/runtime/*.go internal/collective/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$out" ]; then \
		echo "single-path: an α–β hop charged outside rankCtx (use push/pull) or a tree level loop outside collective.TreeSchedule:"; echo "$$out"; exit 1; \
	fi
	@echo "single-path: every one-way hop is charged in rankCtx, every sequential tree walked by TreeSchedule"
	@out="$$(awk '/^[ \t]*\/\// { next } \
		FILENAME ~ /\/train\// && /core\.(New|MustNew)\(/ { print FILENAME ":" FNR ": " $$0 } \
		/\.Dense\(\)/ { print FILENAME ":" FNR ": " $$0 }' \
		$$(ls internal/runtime/*.go internal/train/*.go internal/core/register.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$out" ]; then \
		echo "single-path: a second synchronizer path (a core.New in the trainer, or outputs made vectors outside registry.Dense):"; echo "$$out"; exit 1; \
	fi
	@echo "single-path: every trainer method opens through core.OpenCollective, and registry.Dense is the one densifier"

# deadcode links every program with inlining off and the linker's
# reachability graph dumped, and lists the non-test functions under
# internal/ that none of them reaches. The list must equal
# tools/deadcode.golden, which holds only what is dead on purpose
# (helpers the tests call): a capability no program runs cannot land,
# and deleting one must shrink the golden in the same change.
deadcode:
	@bash tools/deadcode.sh -check

# portable compiles what amd64 and arm64 never do: the byte-order-
# explicit float codec (internal/runtime/codec_portable.go) and every
# int-width assumption a 32-bit int breaks. s390x is big-endian, 386 has
# a 32-bit int. The 386 tests are a subset on purpose: the whole runtime
# suite fails there with "shm: mmap ring: cannot allocate memory",
# because the shared-memory fabric maps n² rings of 4 MiB each and a
# 32-bit address space does not hold the many fabrics the jittered
# matrix keeps open at once. The subset keeps the equivalence matrix on
# all four fabrics (one case at a time), the degenerate-torus and
# special-value full-precision checks, the frame-forwarding draw counts
# of the ring and the tree, and the sign-frame fuzz seeds.
PORTABLE_RUNTIME_TESTS := TestRingIsDegenerateTorus|TestCollectiveEquivalence$$|TestRoundCarriesNoHiddenPayload|FuzzSignFrameRobust|TestFullPrecisionSpecialValues|TestRARForwardsFrames|TestTreeForwardsFrames

portable:
	GOARCH=s390x $(GO) vet ./internal/...
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./internal/bitvec ./internal/compress
	GOARCH=386 $(GO) test -run '$(PORTABLE_RUNTIME_TESTS)' ./internal/runtime

# tcp-demo launches one marsit-node process per rank on fixed local
# ports, for two fleets in turn: the flat ring, then README's 2×2 torus
# (-torus 2,2). In each, rank 0 gathers every rank's result, wire bytes
# and virtual clock, replays the run on the sequential engine, and exits
# non-zero unless everything is bit-identical.
TCP_DEMO_PEERS := 127.0.0.1:7741,127.0.0.1:7742,127.0.0.1:7743,127.0.0.1:7744
TCP_DEMO_TORUS_PEERS := 127.0.0.1:7745,127.0.0.1:7746,127.0.0.1:7747,127.0.0.1:7748

tcp-demo:
	$(GO) build -o bin/marsit-node ./cmd/marsit-node
	@for fleet in "$(TCP_DEMO_PEERS)|-dim 4096" "$(TCP_DEMO_TORUS_PEERS)|-torus 2,2"; do \
		peers="$${fleet%%|*}"; shape="$${fleet#*|}"; \
		pids=""; \
		for r in 1 2 3; do \
			./bin/marsit-node -rank $$r -peers $$peers \
				-collective marsit $$shape -rounds 8 -k 4 -check -quiet & \
			pids="$$pids $$!"; \
		done; \
		status=0; \
		./bin/marsit-node -rank 0 -peers $$peers \
			-collective marsit $$shape -rounds 8 -k 4 -check || status=$$?; \
		for p in $$pids; do wait $$p || status=$$?; done; \
		if [ $$status -ne 0 ]; then echo "tcp-demo: FAILED ($$shape)"; exit $$status; fi; \
	done; \
	echo "tcp-demo: 4-rank TCP fabrics (ring and 2x2 torus) match the sequential engine"

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
# The endpoint answers before the fabric has assembled, and the faultwrap
# counters register only when the fabric is wrapped, so the poller keeps
# scraping until they appear.
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
			&& grep -q marsit_faultwrap_delays_total bin/calib-demo-metrics.txt \
			&& exit 0; i=$$((i+1)); sleep 0.1; \
	  done; echo "calib-demo: /metrics never served the faultwrap counters"; exit 1 ) & poller=$$!; \
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
