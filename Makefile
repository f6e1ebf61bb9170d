# Developer entry points; CI runs `make check`.

GO ?= go

.PHONY: build vet fmt-check test race allocs fma check lint guard deadcode apicheck lock examples conform conform-smoke bench benchcheck clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation locks, run without -race: the race detector drops
# sync.Pool puts at random, so TestWarmHitAllocs and TestColdRunAllocs are
# built only without it. TestPacketLayout locks the bytes of a packet, a
# SACK report and both slabs, the size classes the slabs are served from,
# and the packet's field order; TestRangesBytes what a list that belongs to
# no pool costs as it grows, in a process of its own, so that no spare
# array another test handed back can hide a first-use cost;
# TestRecycledRangesBytes that a list bound to a pool grows on the arrays a
# finished run handed back without allocating; TestWarmHitAllocs a warm
# hit's objects and bytes, TestColdRunAllocs a cold scenario's; TestDigestAllocs what a run's fingerprint
# costs.
allocs:
	$(GO) test -count=1 -run '^TestRangesBytes$$' ./internal/netem
	$(GO) test -count=1 -run '^(TestTransitZeroAlloc|TestPacketLayout|TestRecycledRangesBytes|TestControllersZeroAlloc|TestLossPathZeroAlloc|TestStreamZeroAlloc|TestWarmHitAllocs|TestColdRunAllocs|TestDigestAllocs)$$' \
		./internal/netem ./internal/core ./internal/tcp ./internal/mptcp ./internal/campaign ./internal/scenario

# FMA ratchet: a fused multiply-add rounds once where amd64
# rounds twice, so an arm64 host can compute different bytes. Count the
# fused instructions the arm64 compiler emits in the module and fail when
# more than 44 sit outside internal/fluid and internal/fixedpoint, whose
# results are checked against tolerances. The limit only goes down. -a is
# required: a cached package prints no assembly, which would count 0.
fma:
	@asm=$$(mktemp) && trap 'rm -f "$$asm"' EXIT && \
	if ! GOARCH=arm64 $(GO) build -a -gcflags='mptcpsim/...=-S' ./internal/... . 2> "$$asm"; then \
		grep -v '^[[:space:]]' "$$asm"; echo "fma: arm64 build failed"; exit 1; \
	fi && \
	awk -F '\t' -v limit=44 ' \
		$$3 ~ /^(FMADD|FMSUB|FNMADD|FNMSUB)[DS]$$/ { \
			total++; file = $$2; sub(/^[^(]*\(/, "", file); sub(/:[0-9]+\)$$/, "", file); \
			if (file !~ /\/internal\/(fluid|fixedpoint)\//) { n++; by[file]++ } \
		} \
		END { \
			if (total == 0) { print "fma: no assembly counted; was the build cached?"; exit 1 } \
			printf "fma: %d fused multiply-adds on arm64, %d outside internal/fluid and internal/fixedpoint (limit %d)\n", total, n, limit; \
			if (n > limit) { for (f in by) printf "  %4d %s\n", by[f], f; exit 1 } \
		}' "$$asm"

check: build vet fmt-check lint guard deadcode race allocs fma apicheck

# Dead-code ratchet: every function and method in non-test Go is linked
# into a binary, or cmd/deadcode/allowlist.txt gives the reason it stays.
# Build every package main that `go list ./...` finds without inlining (so
# a function with callers keeps a symbol), and hand cmd/deadcode the files
# `go list` names and each binary's `go tool nm` symbols. It fails on a
# declaration no binary links that the allowlist does not name, and on an
# allowlist line with no reason or a stale one (its symbol now linked, or
# no longer declared), so the list only shrinks. A test-only accessor is
# not a reason: the test reads the field.
deadcode:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	pkgs=$$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...) && \
	$(GO) build -gcflags=all=-l -o "$$bin/" $$pkgs && \
	$(GO) list -f 'package {{.ImportPath}} {{.Module.Path}} {{join .GoFiles " "}}' ./... > "$$bin/input" && \
	for pkg in $$pkgs; do echo "binary $$pkg" && $(GO) tool nm "$$bin/$${pkg##*/}" || exit 1; done >> "$$bin/input" && \
	$(GO) run ./cmd/deadcode < "$$bin/input"

# Repository-specific static analysis (internal/lint via cmd/simlint):
# determinism (no wall clock / global rand / goroutines / order-sensitive
# map ranges in sim packages), poolsafety (packet/event ownership
# lifecycle), hotpathalloc (no closure timers, boxing, unpreallocated
# appends, or make/new/slice-literal allocation in per-packet and per-ACK
# paths), exhaustive (switches over closed enums
# cover every member or terminate in default), ctxflow (library code
# threads the caller's context; no context.Background outside main/tests),
# unitsafety (no raw conversions in or out of sim.Time outside the sim
# package's audited helpers), errwrap (%w wrapping, errors.Is for
# sentinels, *Error-classified facade returns). Run a subset with
# `go run ./cmd/simlint -run <analyzer,...> ./...`. Suppressions:
# //simlint:ignore <analyzer> <reason>; unused or reason-less suppressions
# are themselves findings.
lint:
	$(GO) run ./cmd/simlint ./...

# One way to run a network, one way to wire a flow, one kind of kernel
# event, one observation point, one job protocol, one generator, one public API, one benchmark
# ladder, one loss-throughput law: no RunUntil( in non-test Go outside internal/sim (which defines
# it), internal/scenario (Net.Run, which slices it for cancellation and puts
# the invariant checks around it) and bench/ (kernel rigs); no payload event
# kind anywhere; no closure event (Sim.At/After) in non-test Go outside
# internal/sim and bench/ (internal/lint is excluded for go/types' Tuple.At);
# no Schedule(, ScheduleAfter( or ScheduleTimer in non-test Go above the
# model packages internal/{sim,netem,tcp,mptcp,scenario} outside
# internal/lint and bench/ (a periodic observer is a Spec.Trace, which
# Compile turns into the network's one sampler and Net.Run arms);
# no runner.Map or runner.NewProgress in non-test Go outside internal/runner
# and bench/ (engines fold and count progress in one runner.Stream's emit);
# no rand.New( or rand.NewSource( in non-test Go outside internal/sim and
# lint testdata (every generator is sim.NewRand: math/rand's stream, seeded
# in O(1)); internal/harness imports none of internal/tcp and internal/netem (its
# networks are scenario.Specs, wired by Compile) nor the deleted internal/topo and
# internal/workload; no Deprecated: marker exists outside lint testdata;
# and no bench*.json is tracked except BENCHMARK.json (results go to the
# ignored bench/out/). The module cross-builds for windows/amd64,
# darwin/arm64 and linux/arm64, and no non-test Go outside bench/ calls
# syscall.Open, Read or Close: file I/O goes through os (the campaign
# cache reads a record with one (*os.File).ReadAt). TCP's √(2/p)/rtt is
# written once, in internal/fixedpoint: no Sqrt(2/ in non-test Go outside it.
# The facade builds no network of its own: no scenario.Spec, LinkSpec,
# PathSpec or FlowSpec literal in the root package's non-test Go (it wraps
# the internal/scenario builders, such as PaperTwoLink). One pipe per delay:
# non-test internal/scenario Go calls netem.NewPipe( at exactly one site,
# Net.pipe, the by-delay constructor (which also builds the private pipe of
# a link a timeline retargets), so pipes cannot come back per flow or link.
# One fluid compiler: no fluid.NewModel( in non-test Go outside
# internal/fluid and internal/scenario/fluid.go (scenario.Fluid compiles
# the model from a Spec), so no network is described a second time by hand.
# Generators go back only from their owners: no sim.FreeRand( in non-test
# Go outside internal/sim, the campaign sampler (internal/campaign/sample.go),
# the scenario fuzzer (internal/scenario/fuzz.go) and the fat-tree builder
# (internal/scenario/fattree.go), and no ReleaseRand(
# outside internal/sim and internal/scenario/run.go (Net.Run defers it), so
# nothing hands back a generator another holder still draws from; the
# kernel's heap and free-list arrays go back with it. Packet slabs and
# range storage go back only where a run ends: no .Release( in non-test Go
# outside internal/netem and internal/scenario/run.go (Net.Run defers the
# packet pool's Release, which also empties the range lists bound to the
# pool), so no slab or range array reaches another run while its own
# network can still use it. One packet lifecycle: no DataPacket(,
# AckPacket(, SetDebug(, &Packet{, &netem.Packet{, new(Packet) or
# new(netem.Packet) in any Go file, tests included, outside
# internal/netem/packet.go and lint testdata, so every packet comes from its
# run's pool and is poisoned when it goes back, and no heap packet or
# poison switch comes back.
# One place a harness network runs: no scenario.Run( in non-test
# internal/harness Go outside collect.go, which runs, checks and reads every
# job. One way to run a network: no scenario.Compile( and no *scenario.Net
# in non-test Go outside internal/scenario and bench/ (kernel rigs), so
# everything above the scenario layer calls scenario.Run and reads the
# RunReport (a trace is part of the Spec, a scenario.TraceSpec, and its
# series are the report's; the kernel's work counters are its Stats).
guard:
	@if git grep -n 'RunUntil(' -- '*.go' ':!*_test.go' ':!internal/sim/' ':!internal/scenario/' ':!bench/'; then \
		echo "raw Sim.RunUntil above the scenario layer: build a scenario.Net and call its Run"; exit 1; \
	fi
	@if git grep -nE 'PayloadHandler|SchedulePayload|RunPayload' -- '*.go' ':!*_test.go'; then \
		echo "a second kernel event kind: implement sim.Handler on the component"; exit 1; \
	fi
	@if git grep -nE '\.(At|After)\(' -- '*.go' ':!*_test.go' ':!internal/sim/' ':!internal/lint/' ':!bench/' | grep -v 'time\.After('; then \
		echo "closure event outside internal/sim and bench/: implement sim.Handler and Schedule it"; exit 1; \
	fi
	@if git grep -nE '\.(Schedule|ScheduleAfter)\(|\.ScheduleTimer' -- '*.go' ':!*_test.go' ':!internal/sim/' ':!internal/netem/' ':!internal/tcp/' ':!internal/mptcp/' ':!internal/scenario/' ':!internal/lint/' ':!bench/'; then \
		echo "a kernel event scheduled above the scenario layer: an observer is a scenario.TraceSpec"; exit 1; \
	fi
	@if git grep -nE 'runner\.(Map|NewProgress)\(' -- '*.go' ':!*_test.go' ':!internal/runner/' ':!bench/'; then \
		echo "engines are one runner.Stream: fold and count progress in emit"; exit 1; \
	fi
	@if git grep -nE 'rand\.(New|NewSource)\(' -- '*.go' ':!*_test.go' ':!internal/sim/' ':!internal/lint/*/testdata/*'; then \
		echo "a generator built outside internal/sim: draw from sim.NewRand"; exit 1; \
	fi
	@$(GO) list -f '{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./internal/harness | \
	awk '{ for (i = 2; i <= NF; i++) if ($$i ~ /^mptcpsim\/internal\/(tcp|netem|topo|workload)$$/) { print $$1 " imports " $$i ": describe the network as a scenario.Spec instead"; bad = 1 } } END { exit bad }'
	@if grep -rn 'Deprecated:' --include='*.go' . | grep -v '/internal/lint/.*/testdata/'; then \
		echo "Deprecated: markers found — delete the old path instead of keeping it"; exit 1; \
	fi
	@! git ls-files | grep -iE '(^|/)bench[^/]*\.json$$' | grep -vx BENCHMARK.json || \
		{ echo "committed benchmark results found — bench/ and BENCHMARK.json are the only ladder"; exit 1; }
	@if git grep -nE 'syscall\.(Open|Read|Close)\(' -- '*.go' ':!*_test.go' ':!bench/'; then \
		echo "direct syscall file I/O: use os"; exit 1; \
	fi
	@if git grep -n 'Sqrt(2/' -- '*.go' ':!*_test.go' ':!internal/fixedpoint/'; then \
		echo "the loss-throughput law lives in internal/fixedpoint"; exit 1; \
	fi
	@if git grep -nE 'scenario\.(Spec|LinkSpec|PathSpec|FlowSpec)\{' -- ':(glob)*.go' ':!*_test.go'; then \
		echo "network builders live in internal/scenario; the facade wraps them"; exit 1; \
	fi
	@sites=$$(git grep -n 'netem\.NewPipe(' -- 'internal/scenario/*.go' ':!*_test.go'); \
	if [ "$$(printf '%s' "$$sites" | grep -c .)" -ne 1 ]; then \
		printf '%s\n' "$$sites"; \
		echo "one pipe per delay: internal/scenario builds pipes at one site, Net.pipe"; exit 1; \
	fi
	@if git grep -n 'fluid\.NewModel(' -- '*.go' ':!*_test.go' ':!internal/fluid/' ':!internal/scenario/fluid.go'; then \
		echo "one fluid compiler: build the fluid model with scenario.Fluid from a Spec"; exit 1; \
	fi
	@if git grep -n 'FreeRand(' -- '*.go' ':!*_test.go' ':!internal/sim/' ':!internal/campaign/sample.go' ':!internal/scenario/fuzz.go' ':!internal/scenario/fattree.go'; then \
		echo "a generator goes back only from its owner: sim.FreeRand in the campaign sampler, the scenario fuzzer and the fat-tree builder"; exit 1; \
	fi
	@if git grep -n 'ReleaseRand(' -- '*.go' ':!*_test.go' ':!internal/sim/' ':!internal/scenario/run.go'; then \
		echo "a run's generator goes back only where scenario.Net.Run ends"; exit 1; \
	fi
	@if git grep -n '\.Release(' -- '*.go' ':!*_test.go' ':!internal/netem/' ':!internal/scenario/run.go'; then \
		echo "a run's packet slabs go back only where scenario.Net.Run ends"; exit 1; \
	fi
	@if git grep -nE '(^|[^[:alnum:]_])(DataPacket|AckPacket|SetDebug)\(|&(netem\.)?Packet\{|new\((netem\.)?Packet\)' -- '*.go' ':!internal/netem/packet.go' ':!internal/lint/*/testdata/*'; then \
		echo "one packet lifecycle: take packets from the run's pool (netem.PoolFor(s).NewData/NewAck); Free and Release always poison"; exit 1; \
	fi
	@if git grep -nF 'scenario.Run(' -- 'internal/harness/*.go' ':!*_test.go' ':!internal/harness/collect.go'; then \
		echo "a harness network runs in one place: collect runs, checks and reads every job"; exit 1; \
	fi
	@if git grep -nE 'scenario\.Compile\(|\*scenario\.Net\b' -- '*.go' ':!*_test.go' ':!internal/scenario/' ':!bench/'; then \
		echo "one way to run a network: call scenario.Run and read its RunReport, not a compiled network"; exit 1; \
	fi
	@for target in windows/amd64 darwin/arm64 linux/arm64; do \
		GOOS=$${target%/*} GOARCH=$${target#*/} $(GO) build . ./cmd/... ./internal/... || \
			{ echo "cross-build for $$target failed"; exit 1; }; \
	done

# API-surface lock: regenerate api.txt (the exported declarations of the
# root package, via cmd/apilock) and fail on drift from the committed
# version, so public-API changes are deliberate and reviewed.
apicheck:
	$(GO) run ./cmd/apilock -o api.txt
	@if ! git diff --quiet -- api.txt; then \
		echo "api.txt drifted — the public API changed; review and commit the regenerated file:"; \
		git --no-pager diff -- api.txt; exit 1; \
	fi

# Behaviour lock: rewrite behaviour.lock (per canary run: its event count,
# its Digest.Traffic and its Spec's hash, both over the scenario codec's one
# encoding) from this tree. TestBehaviourLock fails on drift, and Version()
# hashes the file, so run this only when a behaviour change is intended and
# explain the delta per canary.
lock:
	$(GO) test . -run '^TestBehaviourLock$$' -update

# Build every example and smoke-run each at reduced scale.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart -seconds 5 > /dev/null
	$(GO) run ./examples/scenario_a -seconds 5 > /dev/null
	$(GO) run ./examples/wireless_handover > /dev/null
	$(GO) run ./examples/datacenter -seconds 1 > /dev/null

# Scenario fuzzer + cross-model conformance suite: 200 generated scenarios
# under the full invariant set, then packet-vs-fluid per-path goodput share
# agreement on 3- and 4-path topologies. Exits non-zero on any failure.
conform:
	$(GO) run ./cmd/mptcpsim conform

conform-smoke:
	$(GO) run ./cmd/mptcpsim conform -smoke

# The repository benchmark (bench/README.md, BENCHMARK.json): every
# workload, end-to-end metrics plus the traced per-layer ladder, written to
# bench/out/results.json.
bench:
	$(GO) run ./bench -seed 1

# Compare two results files taken on one machine against BENCHMARK.json's
# bounds: make benchcheck OLD=a.json NEW=b.json
benchcheck:
	$(GO) run ./bench -compare $(OLD) $(NEW)

clean:
	rm -f mptcpsim coverage.*
