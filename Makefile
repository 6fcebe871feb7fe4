# The local gate chain mirrors .github/workflows/ci.yml:
#   make ci  =  build → vet → amrivet → race tests
# so a green `make ci` means a green CI run.

GO ?= go
AMRIVET := bin/amrivet

.PHONY: all build vet lint prune-baseline fixtures test race chaos chaos-sweep bench-smoke bench-json bench-measure bench-tuner bench-gate profile ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

$(AMRIVET): FORCE
	$(GO) build -o $(AMRIVET) ./cmd/amrivet

# lint runs the repo's own static-analysis suite (see internal/analysis):
# mutexguard, bitbudget, wallclock, detrand, atomicmix, lockorder,
# chanprotocol, hotalloc, errdrop, lockhold, critescape, waitleak,
# falseshare, maporder, barrierflush, walorder, atomicproto. The second
# invocation is the self-check: the analyzers must come up clean over
# their own implementation (auto-baseline is suppress-only, so the
# partial tree does not misread out-of-tree entries as stale).
# (`go build` in the build target warms the export data `go list -export`
# resolves imports from, so the amrivet runs hit the build cache.)
# .amrivet-baseline.json records the accepted findings (captured with
# amrivet -json): allocations the hot path cannot avoid, each justified in
# DESIGN.md §9. Only NEW findings fail the build (exit 1); entries that no
# longer fire are stale debt and fail with exit 3 — run
# `make prune-baseline` to drop them.
lint: vet $(AMRIVET)
	./$(AMRIVET) -baseline .amrivet-baseline.json ./...
	./$(AMRIVET) ./internal/analysis/...

# prune-baseline rewrites .amrivet-baseline.json keeping only entries that
# still fire, clearing a stale-baseline (exit 3) lint failure.
prune-baseline: $(AMRIVET)
	./$(AMRIVET) -baseline .amrivet-baseline.json -prune-baseline ./...

# fixtures runs the analyzer fixture tests: every testdata/src/<name>
# package's `// want` expectations must match the diagnostics exactly, so
# analyzer drift fails the build.
fixtures:
	$(GO) test -count=1 ./internal/analysis/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... .

# chaos runs the seeded fault-injection sweep under the race detector:
# supervisor restarts, mailbox shedding, migration aborts, goroutine-leak
# checks and the engine's soft-watermark degradation (DESIGN.md §8).
chaos:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 \
		-run 'Chaos|Leak|Mailbox|MigrateGate|AbortMigration|Watermark' \
		./internal/pipeline ./internal/bitindex ./internal/core ./internal/engine

# chaos-sweep is the durability gate (DESIGN.md §11): the crash/recover
# exploration harness sweeps seeds × fault plans × crash points under the
# race detector, checking the invariants after every recovery; then the
# lying-disk self-test proves the harness still catches a real failure,
# minimizes it to chaos-repro.json, and the repro replays to a failure
# through `amripipe -replay`.
chaos-sweep:
	$(GO) run -race ./cmd/amrichaos -seeds 3 -ticks 24
	$(GO) run -race ./cmd/amrichaos -seeds 1 -ticks 20 -flake-every 2 \
		-expect-fail -out chaos-repro.json
	$(GO) run -race ./cmd/amripipe -replay chaos-repro.json; test $$? -eq 1

# bench-smoke proves the hot-path benchmarks still run (1 iteration each);
# it is a compile-and-execute gate, not a performance measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/bitindex ./internal/hh ./internal/stem ./internal/assess ./internal/bench

# bench-json regenerates the committed sharded-index worker-sweep artifact
# (full horizon; -check enforces the digest-equality and >=2x-at-8-workers
# acceptance bars plus the "flat never beats sharded" dominance).
bench-json:
	$(GO) run ./cmd/amribench -json -check -out BENCH_shard.json

# bench-measure regenerates the committed measured pipeline artifact: the
# real pipeline timed across the 1/2/8-worker sweep on the drift workload
# (median of 5 in-process reps per point) next to the modeled LPT rows over
# the same trace. The embedded Check enforces that every measured digest
# equals the serial reference.
bench-measure:
	$(GO) run ./cmd/amribench -measure -check -out BENCH_pipeline.json

# bench-tuner regenerates the committed retune-under-load artifact: the
# deterministic thrash A/B (v1 vs v2 tuner.Controller on an oscillating
# drift pattern) plus the measured notune/v2 pair on the drift workload
# (best of 5 in-process reps per point, digests checked against the
# no-tuning reference). The embedded Check enforces zero v2 flip-flops vs
# >=2 for the v1 policy, and v2 p99 tick latency within 1.25x of the
# no-tuning run.
bench-tuner:
	$(GO) run ./cmd/amribench -tuner -check -out BENCH_tuner.json

# bench-gate re-measures at quick horizon and gates against the committed
# artifacts: fails on any digest drift, on a missing committed row, on
# controller thrash, on v2 p99 past 1.25x notune, or on a >10% regression
# of the headline point (widest-pool tuples/sec; v2 p99) vs the committed
# value. Absolute numbers are only compared on the committed setup — same
# seed/ticks/shards and at least the baseline's core count; otherwise the
# pipeline gate prints that it skipped the comparison and the tuner gate
# compares the v2/notune ratio (PipelineBenchResult.Gate,
# TunerBenchResult.Gate).
bench-gate:
	$(GO) run ./cmd/amribench -measure -quick -gate BENCH_pipeline.json
	$(GO) run ./cmd/amribench -tuner -quick -gate BENCH_tuner.json

# profile runs the measured bench once with CPU, mutex and allocation
# profiles enabled; inspect with `go tool pprof cpu.prof` etc.
profile:
	$(GO) run ./cmd/amribench -measure -reps 1 -warmup 0 -workers 8 -out /dev/null \
		-cpuprofile cpu.prof -mutexprofile mutex.prof -memprofile mem.prof
	@echo "wrote cpu.prof mutex.prof mem.prof"

ci: build lint test race

clean:
	rm -rf bin

FORCE:
