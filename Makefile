# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race lint lint-github lint-consistency lint-dataflow bench-smoke bench-check serve-smoke fmt vet

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The incremental cache keeps warm runs fast (per-package results keyed
# by source content + dependency keys + the analyzer registry hash, under
# .mrmlint-cache/); CI persists the directory via actions/cache.
lint:
	$(GO) run ./cmd/mrmlint -cache ./...

lint-github:
	$(GO) run ./cmd/mrmlint -github ./...

# go vet's copylocks and mrmlint's mutexcopy approximate the same property
# from different directions; CI requires both to agree the tree is clean.
lint-consistency:
	$(GO) vet -copylocks ./...
	$(GO) run ./cmd/mrmlint -enable=mutexcopy ./...

# Just the CFG/taint-powered discipline analyzers (they are part of the
# default `lint` run too; this target isolates them for iterating on the
# budget/ledger/pool contracts).
lint-dataflow:
	$(GO) run ./cmd/mrmlint -enable=epsbudget,ledgercharge,poolescape ./...

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x . ./internal/lump
	$(GO) run ./cmd/perfbench -compare
	$(GO) run ./cmd/perfbench -json BENCH_PR7.json -workers-sweep
	$(GO) run ./cmd/mrmlint -bench-json BENCH_PR8.json ./...
	$(GO) run ./cmd/perfbench -scale-json BENCH_PR9.json

# Compare a fresh benchmark run against the committed performance trail;
# exits non-zero on >20% time or >10% allocation regressions, and refuses
# outright when the baseline was recorded on a different CPU count
# (baselines are per machine class — regenerate with bench-smoke).
# The lint leg re-times cold vs warm into a scratch file (the committed
# BENCH_PR8.json is the recorded trail) and fails when the warm cached
# run is not at least twice as fast as cold or replay diverges.
# The scale leg validates the committed BENCH_PR9.json invariants (≥10^5
# states, ≥5× truncated speedup, truncation budget ≤ ε), re-proves the
# budget live on a smaller cluster instance, and gates the automatic lump
# pre-pass against noise on the 9-state seed model.
bench-check:
	$(GO) run ./cmd/perfbench -baseline BENCH_PR7.json -workers-sweep
	$(GO) run ./cmd/mrmlint -bench-json /tmp/mrmlint-bench-check.json ./...
	$(GO) run ./cmd/perfbench -scale-check BENCH_PR9.json

# The service acceptance smoke: an in-process csrld on a real listener,
# station model uploaded over HTTP, 8 concurrent queries fired twice.
# Asserts every response is a 200 whose Σ ≤ ε budget proof passes and
# whose answer is bitwise identical to a one-shot checker, and that the
# second wave is served from the cross-request memo (hits > 0, no new
# misses).
serve-smoke:
	$(GO) run ./cmd/csrld -smoke

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...
