# Development workflow for the ccnuma simulator. `make check` is the
# pre-PR gate: formatting, vet, and the full test suite under the race
# detector at the small problem sizes the tests use.

GO ?= go

.PHONY: all build check fmt vet test race microbench perfbench tables lint verify model chaos scenario attribution serve-smoke torture-smoke pdes-smoke clean

all: build

build:
	$(GO) build ./...

# check is the pre-PR gate: gofmt must report nothing, vet and cclint must
# be clean (cclint also rejects //nolint and //cclint:ignore directives
# that carry no reason, and fails when the committed protocol model is
# stale), every test must pass with the race detector on, the replay
# checker must close the 2-node state space with zero violations, the
# extracted-model checker must close its abstract state space, seeded
# chaos schedules must recover, and the benchmark must build and
# reproduce its pinned simulated results. No step gates on host timing.
check: fmt vet lint race verify model chaos scenario attribution serve-smoke torture-smoke pdes-smoke perfbench

# lint runs the repo's own analyzer suite (internal/lint): exhaustive
# switches over protocol/cache/directory enums, no wall-clock or global
# rand in simulated-time packages, no no-op scheduled callbacks, and
# reasons on every suppression.
lint:
	$(GO) run ./cmd/cclint ./...

# verify model-checks the real protocol stack on the smallest interesting
# machine. Must reach a fixpoint with zero invariant violations.
verify:
	$(GO) run ./cmd/ccverify -nodes 2 -procs 1 -q

# model is the extracted-model gate: the committed ccnuma-model artifact
# must match a fresh extraction of internal/core + internal/protocol, the
# abstract 4-node machine (with finite-buffer NACK/backoff edges) must
# reach a violation-free fixpoint, and a concrete replay must validate
# its transitions against the extracted rule table.
model:
	$(GO) run ./cmd/ccmodel -stale
	$(GO) run ./cmd/ccmodel -check -nodes 4 -robust
	$(GO) run ./cmd/ccmodel -conform

# chaos smoke-tests the recovery machinery: one kernel under 25 seeded
# fault schedules plus the single-fault recovery sweep. Every run must
# complete, verify, and drain with zero invariant violations.
chaos:
	$(GO) run ./cmd/ccchaos -app fft -schedules 25 -q
	$(GO) run ./cmd/ccverify -nodes 2 -procs 1 -sweep-faults -q

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# scenario smoke-tests the declarative layer end to end: run a committed
# spec, plain and with the -robust flag overlaid, replay each artifact it
# wrote, and require every replayed artifact to be byte-identical to its
# original (so "robust": true round-trips through -spec, the flag overlay,
# the artifact and -replay).
scenario:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/ccsim -spec examples/scenarios/base.json -json "$$tmp/run.json" >/dev/null && \
	$(GO) run ./cmd/ccsim -replay "$$tmp/run.json" -json "$$tmp/replay.json" >/dev/null && \
	cmp "$$tmp/run.json" "$$tmp/replay.json" && \
	$(GO) run ./cmd/ccsim -spec examples/scenarios/base.json -robust -json "$$tmp/robust.json" >/dev/null && \
	grep -q '"robust": true' "$$tmp/robust.json" && \
	$(GO) run ./cmd/ccsim -replay "$$tmp/robust.json" -json "$$tmp/robust-replay.json" >/dev/null && \
	cmp "$$tmp/robust.json" "$$tmp/robust-replay.json" && echo "scenario: replay byte-identical, plain and robust"; \
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
# SizeTest, then the engine hot-loop benchmarks in internal/sim and the miss
# path benchmarks in internal/machine at the default benchtime, so their
# ns/op is the engine's per-event cost and the host cost of one local or
# remote L2 miss, printed with allocs/op. No gate reads these timings.
microbench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench . -run '^$$' ./internal/sim ./internal/machine

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
	rm -f ccchaos cclint ccmodel ccserved ccsim ccsubmit ccsweep cctables cctrace ccverify
