GO ?= go

.PHONY: ci fmt vet build examples bench-compile benchmark-build benchmark-smoke test race fuzz-smoke lint cover bench bench-smoke bench-guard smoke obs-guard chaos determinism-guard determinism-record

ci: fmt vet lint build examples bench-compile benchmark-build benchmark-smoke race fuzz-smoke cover chaos smoke obs-guard determinism-guard bench-guard

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# examples: run every program under examples/ — each checks its own
# results and exits nonzero on a mismatch — so the paper calls only an
# example makes (cmd/simlint/allowlist.txt) run in CI.
examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d > /dev/null || { echo "examples: $$d FAILED"; exit 1; }; \
		echo "examples: $$d ok"; \
	done

# bench-compile: run every Benchmark* function under internal/ once
# (no tests), so the host microbenchmarks — BenchmarkHandoff,
# BenchmarkEnvRun, BenchmarkRPCRoundTrip, BenchmarkGetDirect and the
# rest — cannot rot unnoticed: each must still build, set up and
# complete an iteration.
bench-compile:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# benchmark-build: benchmark/ is a nested module (replace lite => ../)
# that `go build ./...` does not see; compile and vet it so an exported
# symbol it uses cannot disappear unnoticed.
benchmark-build:
	$(GO) -C benchmark build -o /dev/null .
	$(GO) -C benchmark vet .

# benchmark-smoke: run the instrument CI builds — each small workload at
# --seconds 1, a twelfth of the op counts (fleet's 500-node bring-up is
# too slow for CI). The run's last stdout line is its JSON verdict,
# which must report correct replies and no failed operation.
benchmark-smoke:
	@for w in rpc-small mem-mixed kv-direct; do \
		last=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		case "$$last" in \
		*'"correct":true,'*'"failed":0,'*) echo "benchmark-smoke: $$w ok" ;; \
		*) echo "benchmark-smoke: $$w FAILED: $$last"; exit 1 ;; \
		esac; \
	done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke: fuzz each kvstore wire-frame decoder for a few seconds
# beyond its seed corpus (which plain go test already runs): a decode
# must fail or round-trip, never panic. FuzzMemory drives hostmem's
# two-grain page store against a flat byte model: every read must match
# it. go test fuzzes one target at a time.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 5s ./internal/apps/kvstore/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReply$$' -fuzztime 5s ./internal/apps/kvstore/
	$(GO) test -run '^$$' -fuzz '^FuzzMemory$$' -fuzztime 5s ./internal/hostmem/

# cover: the core LITE layer carries the dedup/admission/failover state
# machines; its statement coverage must not silently erode. The floor
# sits below the current figure (~86%) so honest refactors pass while a
# test-free subsystem landing in internal/lite fails loudly.
COVER_FLOOR = 80.0
# The fault-injection and load-generation harnesses back every chaos
# and tail claim; they carry their own (lower) floor.
COVER_FLOOR_HARNESS = 75.0
define check_cover
	@pct=$$($(GO) test -cover $(1) | awk '{for (i=1; i<=NF; i++) if ($$i ~ /%$$/) print substr($$i, 1, length($$i)-1)}'); \
	if [ -z "$$pct" ]; then echo "cover: no coverage figure from go test $(1)"; exit 1; fi; \
	ok=$$(awk -v p="$$pct" -v f="$(2)" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
	if [ "$$ok" = 1 ]; then \
		echo "cover: $(1) at $$pct% (floor $(2)%)"; \
	else \
		echo "cover: $(1) at $$pct% is below the $(2)% floor"; exit 1; \
	fi
endef
cover:
	$(call check_cover,./internal/lite/,$(COVER_FLOOR))
	$(call check_cover,./internal/tenant/,$(COVER_FLOOR))
	$(call check_cover,./internal/simtime/,$(COVER_FLOOR))
	$(call check_cover,./internal/fabric/,$(COVER_FLOOR))
	$(call check_cover,./internal/apps/kvstore/,$(COVER_FLOOR))
	$(call check_cover,./internal/verbs/,$(COVER_FLOOR))
	$(call check_cover,./internal/rnic/,$(COVER_FLOOR))
	$(call check_cover,./internal/hostmem/,$(COVER_FLOOR))
	$(call check_cover,./internal/faults/,$(COVER_FLOOR_HARNESS))
	$(call check_cover,./internal/load/,$(COVER_FLOOR_HARNESS))

# lint: simulation code must not read the host clock or the global
# math/rand stream — either breaks bit-for-bit reproducibility — and
# every export under internal/ must have a non-test user (or an entry
# in cmd/simlint/allowlist.txt).
lint:
	$(GO) run ./cmd/simlint internal

bench:
	$(GO) run ./cmd/litebench -all

# bench-smoke regenerates the machine-readable perf feed from every
# registered experiment but chaos (which determinism-guard replays
# against its golden instead; internal/bench's TestEveryExperimentIsGuarded
# holds the registry and the feed to this). The paper's figures, tables
# and ablations take about 6 s together; scale and the three 500-node
# stressors churn/incast/rebalance run twice each for their built-in
# replay check. The feed is deleted first, so an id dropped from the
# registry leaves it too; to re-record only some entries, run
# litebench -metrics -json BENCH_litebench.json ids...
bench-smoke:
	rm -f BENCH_litebench.json
	$(GO) run ./cmd/litebench -metrics -json BENCH_litebench.json $$($(GO) run ./cmd/litebench -list | awk '$$1 != "chaos" { print $$1 }')

# bench-guard re-runs the experiments recorded in the committed feed
# and fails if any virtual-time figure, event count, row cell or note
# differs from the committed one at all (only columns an experiment
# declares host-dependent are skipped): changes must be deliberate (and
# re-recorded with bench-smoke), never accidental. Each entry runs with
# metrics off and again with them on; the second run must reproduce the
# same timeline and every committed counter and histogram field.
bench-guard:
	$(GO) run ./cmd/litebench -compare BENCH_litebench.json

# chaos: the fault-injection suites under the race detector, each run
# replayed twice per seed and compared bit for bit — faults pinned to
# every migration phase under three seeds (see migChaosSeeds), and the
# overload workload through a crash/flap/loss plan swept over seeds
# 21–40 (TestChaosUnderOverload).
chaos:
	$(GO) test -race -count=1 -run 'TestMigrationChaos|TestChaosUnderOverload' ./internal/faults/

# determinism-guard replays the seeded chaos experiment and the
# 500-node churn storm and diffs their tables against the committed
# goldens byte for byte. Chaos exercises every layer (scheduler,
# wakeups, fabric, faults, RPC) at small scale; churn replays a
# whole-leaf failure on the Clos fabric — mass declarations, lease
# revocation, shard failover — so any scheduler or fabric change that
# moves a single event shows up here immediately. Wall-time footer
# lines (bracketed) are stripped; everything else is virtual and must
# match exactly. Refresh the goldens with determinism-record after a
# deliberate timeline change.
define check_golden
	@$(GO) run ./cmd/litebench $(1) | grep -v '^\[' > .$(1).fresh.txt; \
	if cmp -s $(2) .$(1).fresh.txt; then \
		rm -f .$(1).fresh.txt; \
		echo "determinism-guard: $(1) replay matches the committed golden"; \
	else \
		echo "determinism-guard: DRIFT from $(2)"; \
		diff $(2) .$(1).fresh.txt || true; \
		rm -f .$(1).fresh.txt; exit 1; \
	fi
endef
determinism-guard:
	$(call check_golden,chaos,GOLDEN_chaos.txt)
	$(call check_golden,churn,GOLDEN_churn.txt)

determinism-record:
	$(GO) run ./cmd/litebench chaos | grep -v '^\[' > GOLDEN_chaos.txt
	$(GO) run ./cmd/litebench churn | grep -v '^\[' > GOLDEN_churn.txt

# smoke: the harness lists its experiments and one runs end to end.
smoke:
	$(GO) run ./cmd/litebench -list
	$(GO) run ./cmd/litebench trace

# obs-guard: collecting metrics must not move a single virtual-time
# event — the same experiment renders identical tables with and
# without -metrics (metric dump lines are '%'-prefixed; the bracketed
# footer carries wall time, so both are stripped before comparing).
# breakdown is one traced call on every layer; tab-cpu is the sparse
# user-level RPC path, where the poller sleeps and is prewaked; kv-tput
# is a kvstore server whose workers sleep between requests and are
# woken at a request's arrival.
obs-guard:
	@for id in breakdown tab-cpu kv-tput; do \
		a=$$($(GO) run ./cmd/litebench $$id | grep -v '^\['); \
		b=$$($(GO) run ./cmd/litebench -metrics $$id | grep -v '^\[' | grep -v '^%'); \
		if [ "$$a" = "$$b" ]; then \
			echo "obs-guard: $$id: metrics leave the virtual timeline unchanged"; \
		else \
			echo "obs-guard: $$id: DRIFT between plain and -metrics runs"; \
			echo "--- plain ---"; echo "$$a"; \
			echo "--- with -metrics ---"; echo "$$b"; exit 1; \
		fi; \
	done
