# The local gate chain mirrors .github/workflows/ci.yml:
#   make ci  =  build → vet → amrivet → race tests
# so a green `make ci` means a green CI run.

GO ?= go
AMRIVET := bin/amrivet

.PHONY: all build vet lint prune-baseline fixtures test race chaos chaos-sweep bench-smoke profile ci clean

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
# supervisor restarts, mailbox shedding, migration aborts and
# goroutine-leak checks (DESIGN.md §8).
chaos:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 \
		-run 'Chaos|Leak|Mailbox|MigrateGate|AbortMigration' \
		./internal/pipeline ./internal/bitindex ./internal/core

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

# bench-smoke proves every package's benchmarks still run (1 iteration
# each): the paper-experiment benchmarks in the root package and the
# hot-path ones. A compile-and-execute gate, not a performance measurement
# (that is `bash benchmark/run.sh`, see BENCHMARK.json).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/bitindex ./internal/hh ./internal/assess

# profile runs the sharded pipeline (BenchmarkPipelineWallClock: the drift
# configuration benchmark/ measures) three times with CPU, mutex and
# allocation profiles enabled; inspect with `go tool pprof cpu.prof` etc.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineWallClock$$' -benchtime 3x \
		-cpuprofile cpu.prof -mutexprofile mutex.prof -memprofile mem.prof .

ci: build lint test race

clean:
	rm -rf bin

FORCE:
