GO ?= go

.PHONY: ci fmt vet build benchmark-build benchmark-smoke test race lint cover bench bench-smoke bench-guard smoke obs-guard migrate-chaos determinism-guard determinism-record

ci: fmt vet lint build benchmark-build benchmark-smoke race cover migrate-chaos smoke obs-guard determinism-guard bench-guard

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

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
	$(call check_cover,./internal/faults/,$(COVER_FLOOR_HARNESS))
	$(call check_cover,./internal/load/,$(COVER_FLOOR_HARNESS))

# lint: simulation code must not read the host clock or the global
# math/rand stream — either breaks bit-for-bit reproducibility.
lint:
	$(GO) run ./cmd/simlint internal

bench:
	$(GO) run ./cmd/litebench -all

# bench-smoke regenerates the machine-readable perf feed from a fast
# experiment subset (sub-second each, except scale and the three
# 500-node stressors churn/incast/rebalance, which run twice each for
# their built-in replay check).
bench-smoke:
	$(GO) run ./cmd/litebench -metrics -json BENCH_litebench.json trace breakdown tput tail saturate fairness lease drain tenants scale churn incast rebalance crossover

# bench-guard re-runs the experiments recorded in the committed feed
# and fails if any virtual-time figure or event count differs from the
# committed one at all: performance changes must be deliberate (and
# re-recorded with bench-smoke), never accidental.
bench-guard:
	$(GO) run ./cmd/litebench -compare BENCH_litebench.json

# migrate-chaos: the chaos-during-migration suite under the race
# detector — faults pinned to every migration phase, replayed under
# three distinct seeds (see migChaosSeeds), each run twice and compared
# bit for bit.
migrate-chaos:
	$(GO) test -race -count=1 -run TestMigrationChaos ./internal/faults/

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
obs-guard:
	@a=$$($(GO) run ./cmd/litebench breakdown | grep -v '^\['); \
	b=$$($(GO) run ./cmd/litebench -metrics breakdown | grep -v '^\[' | grep -v '^%'); \
	if [ "$$a" = "$$b" ]; then \
		echo "obs-guard: metrics leave the virtual timeline unchanged"; \
	else \
		echo "obs-guard: DRIFT between plain and -metrics runs"; \
		echo "--- plain ---"; echo "$$a"; \
		echo "--- with -metrics ---"; echo "$$b"; exit 1; \
	fi
