# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race lint lint-github lint-consistency lint-dataflow bench-smoke bench-test serve-smoke fmt vet

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
