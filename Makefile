# Development workflow for the ccnuma simulator. `make check` is the
# pre-PR gate: formatting, vet, and the full test suite under the race
# detector at the small problem sizes the tests use.

GO ?= go

.PHONY: all build check fmt vet test race bench-smoke microbench perfbench tables lint model chaos scenario attribution serve-smoke torture-smoke pdes-smoke clean

all: build

build:
	$(GO) build ./...

# check is the pre-PR gate: gofmt must report nothing, vet and cclint must
# be clean (cclint also rejects //nolint and //cclint:ignore directives
# that carry no reason), the committed protocol model must be fresh,
# every test must pass with the race detector on, the protocol
# checker must close the abstract 4-node state space and the real 2-node
# one with zero violations, seeded chaos schedules and single injected
# faults must recover, every go-test benchmark must run once, and the
# benchmark must build and reproduce its pinned simulated results. No step
# gates on host timing.
check: fmt vet lint race bench-smoke model chaos scenario attribution serve-smoke torture-smoke pdes-smoke perfbench

# lint runs the repo's own analyzer suite (internal/lint): exhaustive
# switches over protocol/cache/directory enums and program operation
# kinds, no wall-clock or global rand in simulated-time packages, no no-op
# scheduled callbacks, and reasons on every suppression.
lint:
	$(GO) run ./cmd/cclint ./...

# model is the protocol-checker gate: the committed ccnuma-model artifact
# must match a fresh extraction of internal/core + internal/protocol, the
# abstract 4-node machine (with finite-buffer NACK/backoff edges) must
# reach a violation-free fixpoint, and the real stack must too on the
# smallest interesting machine (2 nodes x 1 processor, plus timing races),
# with every transition of those replays and of the access storms
# validated against the extracted rule table.
model:
	$(GO) run ./cmd/ccmodel -stale
	$(GO) run ./cmd/ccmodel -check -nodes 4 -robust
	$(GO) run ./cmd/ccmodel -conform -replay -nodes 2 -procs 1 -q

# chaos smoke-tests the recovery machinery: one kernel under 25 seeded
# fault schedules plus the single-fault recovery sweep. Every run must
# complete, verify, and drain with zero invariant violations.
chaos:
	$(GO) run ./cmd/ccchaos -app fft -schedules 25 -q
	$(GO) run ./cmd/ccmodel -sweep-faults -nodes 2 -procs 1 -q

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke runs every go-test benchmark once, so a benchmark whose
# program or machine no longer builds or runs fails the gate; it reads no
# timing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# scenario smoke-tests the declarative layer end to end: run a committed
# spec, plain and with the -robust flag overlaid, replay each artifact it
# wrote, and require every replayed artifact to be byte-identical to its
# original (so "robust": true round-trips through -spec, the flag overlay,
# the artifact and -replay). A ccchaos campaign must replay byte-identical
# from its artifact too, and ccchaos's -seed must set the fault plan's base
# seed, not the workload's. An output path in a missing directory must fail
# before the run (ccchaos prints its campaign header once it starts):
# non-zero exit, nothing on stdout, nothing created.
scenario:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/ccsim -spec examples/scenarios/base.json -json "$$tmp/run.json" >/dev/null && \
	$(GO) run ./cmd/ccsim -replay "$$tmp/run.json" -json "$$tmp/replay.json" >/dev/null && \
	cmp "$$tmp/run.json" "$$tmp/replay.json" && \
	$(GO) run ./cmd/ccsim -spec examples/scenarios/base.json -robust -json "$$tmp/robust.json" >/dev/null && \
	grep -q '"robust": true' "$$tmp/robust.json" && \
	$(GO) run ./cmd/ccsim -replay "$$tmp/robust.json" -json "$$tmp/robust-replay.json" >/dev/null && \
	cmp "$$tmp/robust.json" "$$tmp/robust-replay.json" && \
	mkdir "$$tmp/A" "$$tmp/B" && \
	$(GO) run ./cmd/ccchaos -app fft -schedules 3 -q -json "$$tmp/A" >/dev/null && \
	$(GO) run ./cmd/ccchaos -replay "$$tmp/A/ccchaos-fft.json" -q -json "$$tmp/B" >/dev/null && \
	cmp "$$tmp/A/ccchaos-fft.json" "$$tmp/B/ccchaos-fft.json" && \
	$(GO) run ./cmd/ccchaos -seed 9 -print-spec >"$$tmp/seed.json" && \
	grep -q '"baseSeed": 9' "$$tmp/seed.json" && ! grep -q '"seed"' "$$tmp/seed.json" && \
	! $(GO) run ./cmd/ccsim -app fft -nodes 2 -ppn 1 -size test -json "$$tmp/missing/run.json" >"$$tmp/missing.out" 2>/dev/null && \
	[ ! -s "$$tmp/missing.out" ] && \
	! $(GO) run ./cmd/ccchaos -app fft -schedules 3 -q -json "$$tmp/missing" >"$$tmp/missing.out" 2>/dev/null && \
	[ ! -s "$$tmp/missing.out" ] && [ ! -e "$$tmp/missing" ] && \
	echo "scenario: replay byte-identical: plain, robust and a chaos campaign; a missing output directory fails first"; \
	status=$$?; rm -rf "$$tmp"; exit $$status

# attribution smoke-tests the span-tracing layer: a small kernel with
# per-transaction attribution on must complete (machine.Run fails the run
# if the stage spans do not partition the end-to-end latencies exactly)
# and its artifact must carry the attribution section of the
# ccnuma-run/v1 schema.
attribution:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/ccsim -app fft -arch HWC -nodes 4 -ppn 2 -size test -attribution -json "$$tmp/attr.json" >/dev/null && \
	grep -q '"attribution"' "$$tmp/attr.json" && echo "attribution: conservation + schema OK"; \
	status=$$?; rm -rf "$$tmp"; exit $$status

# serve-smoke exercises the experiment service end to end through real
# binaries: start ccserved, submit a sweep with ccsubmit, resubmit it
# (must be all store hits), fetch one artifact, and drain gracefully.
serve-smoke:
	@tmp="$$(mktemp -d)"; status=1; \
	$(GO) build -o "$$tmp/ccserved" ./cmd/ccserved && \
	$(GO) build -o "$$tmp/ccsubmit" ./cmd/ccsubmit && \
	"$$tmp/ccserved" -addr 127.0.0.1:18347 -store "$$tmp/store" -compute-log "$$tmp/compute.log" 2>"$$tmp/served.log" & pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:18347/readyz >/dev/null 2>&1; then break; fi; sleep 0.1; done; \
	"$$tmp/ccsubmit" -addr 127.0.0.1:18347 -scenario examples/scenarios/2hwc-vs-2ppc.json >"$$tmp/first.out" && \
	"$$tmp/ccsubmit" -addr 127.0.0.1:18347 -scenario examples/scenarios/2hwc-vs-2ppc.json >"$$tmp/second.out" && \
	! grep -q computed "$$tmp/second.out" && grep -q hit "$$tmp/second.out" && \
	fp="$$(awk 'NR==2{print $$1}' "$$tmp/first.out")" && \
	"$$tmp/ccsubmit" -addr 127.0.0.1:18347 -fetch "$$fp" | grep -q '"schema": "ccnuma-run/v1"' && \
	curl -fsS http://127.0.0.1:18347/statusz | grep -q '"quarantined": 0' && \
	status=0 && echo "serve-smoke: memoized resubmit + artifact fetch OK"; \
	kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$status -ne 0 ]; then echo "serve-smoke FAILED"; cat "$$tmp/served.log"; fi; \
	rm -rf "$$tmp"; exit $$status

# pdes-smoke is the sharded-scheduler gate: the same scenario run serial
# (-shards 1) and sharded must write byte-identical artifacts — two kernels
# (one with attribution + robustness on, one two-engine) plus one seeded
# chaos schedule whose full progress output is compared byte for byte.
pdes-smoke:
	@tmp="$$(mktemp -d)"; status=1; \
	$(GO) run ./cmd/ccsim -app fft -arch HWC -nodes 4 -ppn 2 -size test -attribution -robust -json "$$tmp/fft-1.json" >/dev/null && \
	$(GO) run ./cmd/ccsim -app fft -arch HWC -nodes 4 -ppn 2 -size test -attribution -robust -shards 4 -json "$$tmp/fft-4.json" >/dev/null && \
	cmp "$$tmp/fft-1.json" "$$tmp/fft-4.json" && \
	$(GO) run ./cmd/ccsim -app radix -arch 2PPC -nodes 4 -ppn 2 -size test -json "$$tmp/radix-1.json" >/dev/null && \
	$(GO) run ./cmd/ccsim -app radix -arch 2PPC -nodes 4 -ppn 2 -size test -shards 2 -json "$$tmp/radix-2.json" >/dev/null && \
	cmp "$$tmp/radix-1.json" "$$tmp/radix-2.json" && \
	$(GO) run ./cmd/ccchaos -app fft -schedules 1 -first 3 >"$$tmp/chaos-1.out" && \
	$(GO) run ./cmd/ccchaos -app fft -schedules 1 -first 3 -shards 4 >"$$tmp/chaos-4.out" && \
	cmp "$$tmp/chaos-1.out" "$$tmp/chaos-4.out" && \
	status=0 && echo "pdes-smoke: sharded runs byte-identical to serial"; \
	rm -rf "$$tmp"; exit $$status

# torture-smoke is the crash-safety gate: a real ccserved process is
# SIGKILLed mid-sweep and restarted for at least 25 seeded cycles; the
# store must never corrupt, never recompute a completed cell, and every
# surviving artifact must be byte-identical to an uninterrupted run.
torture-smoke:
	$(GO) test -count=1 -run TestKillTorture -v ./internal/serve/

# microbench runs the go-test benchmark suites: each paper artifact once at
# SizeTest, then the engine benchmarks in internal/sim (events stepped one
# at a time, a sharded window, and RunChecked's per-cycle drain over a
# 64-processor mix), the cache benchmarks in internal/cache, the L1 hit,
# miss path and construction benchmarks in internal/machine, and the chaos
# cell benchmark in internal/chaos at the default benchtime, so their ns/op
# is the engine's per-event cost, the host cost of reaching a line in the
# base 4-way L2 (a hit by line, a hit through a way handle, a lookup of an
# absent line), of one L1 hit (the program handoff and the processor's hit
# path alone), of one local or remote L2 miss, of building the 16x4 HWC
# machine and chaos-sweep's robust 4x2 one, and of one whole chaos-sweep
# cell (build, a seeded fault schedule, a test-size fft run and its
# checks), printed with allocs/op and B/op. No gate reads these timings.
microbench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench . -run '^$$' ./internal/sim ./internal/cache ./internal/machine ./internal/chaos

# perfbench tests the repository benchmark (BENCHMARK.json), a nested
# module that the root module's build, vet and tests never compile: its
# workload table must match BENCHMARK.json, one pass of every workload
# must run, and the seed-1 simulated results must match their pins.
# `bash perfbench/run.sh` runs the benchmark itself.
perfbench:
	cd perfbench && $(GO) test ./...

# Regenerate every paper table/figure at smoke sizes.
tables:
	$(GO) run ./cmd/cctables -size test

clean:
	$(GO) clean
	rm -f ccchaos cclint ccmodel ccserved ccsim ccsubmit ccsweep cctables cctrace
