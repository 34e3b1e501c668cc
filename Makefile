# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race fuzz lint lint-github lint-dataflow bench-smoke bench-test serve-smoke fmt vet

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz runs of the two input decoders: Parse (formulas) and Decode
# (model files) must never panic, and what they accept must round-trip.
# -fuzzminimizetime=1x stops the minimisation of each new-coverage input
# from taking most of a short run. A failing input is written under the
# package's testdata/fuzz/ directory.
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/logic
	$(GO) test -run=NONE -fuzz='^FuzzDecode$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/modelfile

# The incremental cache keeps warm runs fast (per-package results keyed
# by source content + dependency keys + the analyzer registry hash, under
# .mrmlint-cache/); CI persists the directory via actions/cache.
lint:
	$(GO) run ./cmd/mrmlint -cache ./...

lint-github:
	$(GO) run ./cmd/mrmlint -github ./...

# Just the CFG path analyzers behind the budget, ledger and pool
# contracts: epsbudget, ledgercharge and poolescape, which follow calls
# through the per-function summaries (they are part of the default `lint`
# run too; this target isolates them for iterating on those contracts).
lint-dataflow:
	$(GO) run ./cmd/mrmlint -enable=epsbudget,ledgercharge,poolescape ./...

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x . ./internal/lump ./internal/sparse ./internal/transient

# The end-to-end benchmark's own tests (bench/, a module of its own): every
# BENCHMARK.json workload runs briefly, traced and untraced, and the
# metric names, units and the trace.coverage gate are checked (~30 s).
bench-test:
	cd bench && $(GO) test .

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
