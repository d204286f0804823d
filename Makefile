GO ?= go

.PHONY: all build vet test race check fmt-check lint-workload bench-module bench-kernel portable serve-smoke shard-smoke bench bench-gate bench-contention cache-stress bench-sim bench-sched bench-serve fuzz-sched fuzz-kernel fuzz-api fuzz-codec fuzz-serve fmt clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The pre-commit gate: check formatting as CI does, compile everything, vet,
# lint the workload seam, run the full suite under the race detector (the
# parallel engine is on by default, so every test doubles as a race test,
# and the examples run as Example tests), run the window-walk benchmark
# once, test the portable window walk and vet a non-amd64 build, compile
# and test the end-to-end benchmark module against this tree's APIs, and
# hold the committed benchmark baselines.
check: fmt-check build vet lint-workload race bench-kernel portable bench-module bench-gate

# Fail on any file gofmt would rewrite (the first check of make check).
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The window walk's kernel-level number: BenchmarkEvalWindows times
# evalWindows alone on fixed FC groups and reports ns per lane-word (one
# lane's costs for 8 windows), under the SWAR kernel (.../swar) and the AVX2
# kernel (.../avx2, skipped on a CPU without AVX2). One iteration keeps both
# compiling and running; time them with -benchtime 300x -count 5 -cpu 1.
bench-kernel:
	$(GO) test ./internal/sim -run '^$$' -bench BenchmarkEvalWindows -benchtime 1x

# The window walk's SWAR kernel, its path on any host without AVX2: 386
# binaries run natively on x86-64 and build no AVX2 kernel, so the walk's
# tests and fuzz seeds run the SWAR kernel end to end; and vetting for
# arm64 keeps the non-amd64 file set compiling.
portable:
	GOARCH=386 $(GO) test ./internal/sim ./internal/sched
	GOARCH=arm64 $(GO) vet ./...

# The end-to-end benchmark (benchmark/, run by BENCHMARK.json) is a Go
# module of its own, so ./... above never compiles it. Vet and test it
# here, outside any workspace, so removing an internal API it calls fails
# the gate instead of `bash benchmark/run.sh`.
bench-module:
	GOWORK=off $(GO) -C benchmark vet .
	GOWORK=off $(GO) -C benchmark test -race .

# The benchmark regression gate: re-measure the scheduler, engine and
# serving suites and compare against the committed BENCH_*.json baselines.
# allocs/op gates on every host; ns/op only against a baseline recorded at
# the same GOMAXPROCS with neither side contended. Exits 1 on any >10%
# regression (tune with THRESHOLD=0.05 etc.).
THRESHOLD ?= 0.10
bench-gate:
	$(GO) run ./cmd/tclbench -compare -threshold $(THRESHOLD)

# Contention profile: run the fig8a sweep at parallelism 1, 2, 4 and 8 with
# mutex profiling at full fraction and print the top contended stacks —
# where the striped schedule cache, plane cache, and worker pool actually
# make workers wait. Diagnostic, not a gate.
bench-contention:
	$(GO) run ./cmd/tclbench -contention

# Hammer the shared caches: internal/cache's own tests, then the schedule
# and plane cache stress tests built on it, under the race detector three
# times over, with the exact eviction accounting checked; and the memo
# each lowering keeps of its groups' keys and censuses, swept under configs
# that share or split its tables and by concurrent sweeps racing to fill it.
cache-stress:
	$(GO) test -race -count=3 ./internal/cache
	$(GO) test -race -count=3 ./internal/sched -run 'TestCache|TestKeyer'
	$(GO) test -race -count=3 ./internal/sim -run 'TestPlaneCache|TestMemoSharedAcrossConfigs|TestMemoConcurrentColdSweeps'

# Guard the workload seam: model resolution lives behind the internal/nn
# registry (nn.Register / nn.Lookup). A switch or if-chain arm on a model
# name outside that package reintroduces the hard-coded zoo dispatch the
# registry removed, and breaks externally registered workloads like
# internal/workloads/attention.
lint-workload:
	@bad=$$(grep -rn -E '(case|==) "(AlexNet|GoogLeNet|ResNet50|MobileNet|Bi-LSTM|BERT-Attn|GPT2-Attn|ViT-Attn|ConvNeXt-DW)' \
		--include='*.go' --exclude-dir=nn \
		internal cmd examples *.go 2>/dev/null); \
	if [ -n "$$bad" ]; then \
		echo "model-name dispatch outside internal/nn (use nn.Register/nn.Lookup):"; \
		echo "$$bad"; exit 1; \
	fi

# End-to-end smoke of the evaluation service: builds the real tclserve
# binary, starts it on an ephemeral port, hits /healthz, /v1/simulate and
# /metrics over TCP, then SIGTERMs it and requires a clean drain.
serve-smoke:
	TCL_SERVE_SMOKE=1 $(GO) test ./cmd/tclserve -run TestServeSmoke -v -timeout 5m

# Distributed-mode load smoke: real tclserve binaries — a coordinator over
# two shard workers — must return results byte-identical to a standalone
# single-process server, survive a short tclload drive with zero errors and
# a nonzero coalesce hit rate, and then keep serving with zero errors and
# bit-identical results after one worker is SIGKILLed mid-drive (failover).
shard-smoke:
	TCL_SHARD_SMOKE=1 $(GO) test ./cmd/tclserve -run TestShardSmoke -v -timeout 10m

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$'

# Baseline regeneration, through the same tclbench command CI's "Emit
# multi-core baselines" step runs. A contended run (requested parallelism
# beyond GOMAXPROCS) refuses to overwrite an existing baseline; pass FORCE=1
# to override with the contamination recorded honestly in the file.
FORCE ?=
BENCH_EMIT = $(GO) run ./cmd/tclbench$(if $(FORCE), -force) -emit

# Regenerate BENCH_sim.json: fig8/fig11 ns/op at Parallelism 1 and 8.
bench-sim:
	$(BENCH_EMIT) sim

# Regenerate BENCH_sched.json: scheduler kernel (arena) vs fresh-copy ns/op
# and allocs/op across the Table-2 pattern x algorithm sweep.
bench-sched:
	$(BENCH_EMIT) sched

# Regenerate BENCH_serve.json: request latency percentiles, throughput and
# coalesce hit rate for the tclserve HTTP tier under three load shapes,
# plus deterministic shard-balance rows (max/mean predicted shard cost for
# the LPT partitioner vs round-robin on every zoo model).
bench-serve:
	$(BENCH_EMIT) serve

# Differential fuzz of the optimized scheduling kernel against the reference
# implementation (FUZZTIME defaults to 30s; raise for soak runs).
FUZZTIME ?= 30s
fuzz-sched:
	$(GO) test ./internal/sched -fuzz FuzzKernelMatchesReference -fuzztime $(FUZZTIME) -run '^$$'

# Differential fuzz of the word-parallel window walk against its scalar
# reference, under the SWAR kernel and, where the CPU has AVX2, the AVX2
# kernel.
fuzz-kernel:
	$(GO) test ./internal/sim -fuzz FuzzEvalWindowsMatchesScalar -fuzztime $(FUZZTIME) -run '^$$'

# Fuzz of the public bittactical.Schedule facade: arbitrary sizes, weights
# and pattern names must never panic.
fuzz-api:
	$(GO) test . -fuzz FuzzSchedule -fuzztime $(FUZZTIME) -run '^$$'

# Fuzz of the decoders: the WS image decoder and the off-chip codec must
# reject arbitrary bytes without panicking, and the codec must round-trip.
fuzz-codec:
	$(GO) test ./internal/wsformat -fuzz FuzzDecodeRobust -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/compress -fuzz FuzzDecoderRobust -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/compress -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) -run '^$$'

# Fuzz of /v1/simulate's request decoding and config resolution: arbitrary
# bodies must never panic, every config that builds must validate, and
# respelled backends and patterns must fingerprint alike.
fuzz-serve:
	$(GO) test ./internal/serve -fuzz FuzzSimulateRequest -fuzztime $(FUZZTIME) -run '^$$'

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
