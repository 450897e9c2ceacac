# Tier-1 verification: the build may never regress to unbuildable again.
# `make check` is what CI (.github/workflows/ci.yml) and any contributor
# runs before merging; `make race` and `make cover` are the other two CI
# entry points. The performance gate is the benchmark module under
# bench/ (`bash bench/run.sh`, see bench/README.md); `check` vets and
# tests it because the root module's ./... does not reach it.

GO ?= go

.PHONY: check fmt vet build test lint wflint race flake cover bench e2e e2e-shard e2e-diskfault gauntlet sim golden fuzz

check: lint build test bench
	@echo "check: bench module"
	cd bench && $(GO) vet ./... && $(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Full static-analysis gate: format, vet, staticcheck (when installed;
# CI pins and installs it), and the repository's own invariant checkers.
lint: fmt vet wflint
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; 	else echo "lint: staticcheck not installed; skipping"; fi

# Build cmd/wflint and run the invariant suite (clockinject,
# persistorder, locksafe, goroutinestop — see docs/INVARIANTS.md) over
# the whole module. Exits non-zero on any violation.
wflint:
	$(GO) build -o bin/wflint ./cmd/wflint
	./bin/wflint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled pass over the whole module; the CI race job runs exactly
# this, so local reproduction is one command.
race:
	$(GO) test -race ./...

# Flake hunt: the concurrent packages twenty times over. Tier-1 must be
# green every run; a test that fails once in a hundred shows up here
# long before it reddens an unrelated change.
flake:
	$(GO) test -count=20 ./internal/core ./internal/engine ./internal/orb ./internal/taskexec ./internal/store ./internal/shard ./internal/sim ./internal/execsvc ./internal/persist

# Coverage profile plus a printed total (the last line of cover -func).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# One iteration of each per-package micro-benchmark (orb, store,
# timers, parser, record codecs, the ephemeral engine): a smoke that they
# still run, not a measurement. The performance gate is bench/.
bench:
	$(GO) test -run=XXX -bench=. -benchtime=1x ./...

# End-to-end smokes against real daemons:
#  - multinode: naming + 2 executors + wfexec, SIGKILL one executor
#    mid-run, assert the instance completes via failover;
#  - timers: SIGKILL wfexec mid-delay, restart with -recover, assert the
#    durable timer fires exactly once at its original absolute deadline,
#    plus a `wfadmin schedule` recurring-instantiation smoke.
e2e:
	bash scripts/e2e_multinode.sh
	bash scripts/e2e_timers.sh

# The kill-a-coordinator gauntlet: naming + executors + 2 sharded
# coordinators (wfexec -shard), a load generator spread across both,
# SIGKILL one coordinator mid-run, assert the survivor takes over its
# partitions' leases, re-materializes the orphaned instances from the
# shared store, and every instance still completes. Real daemons and
# real timing, so one automatic re-run absorbs machine-noise flakes; a
# real regression fails both passes.
e2e-shard:
	bash scripts/e2e_shardkill.sh || \
		{ echo "e2e-shard: retrying once to rule out machine noise"; \
		  bash scripts/e2e_shardkill.sh; }

# The crash-consistency gauntlet (see docs/INVARIANTS.md, "Storage"):
# a recorded ≥1k-op WAL workload (one record per batch) re-materialized
# truncated at EVERY record boundary plus hundreds of seeded intra-record
# cuts (no acknowledged batch may be lost, a cut batch recovers as none
# of it, torn tails recover silently), seeded
# mid-log bit-flips (must fail loudly with ErrCorrupt), and the
# engine-level recover-from-every-boundary no-double-fire sweep.
# Verbose output lands in GAUNTLET.log; on failure the log carries the
# failing byte offset and workload seed — the two numbers that ARE the
# repro — and the CI gauntlet job uploads it as the artifact.
gauntlet:
	@$(GO) test -count=1 -run Gauntlet -v ./internal/store ./internal/engine > GAUNTLET.log 2>&1 \
		|| { cat GAUNTLET.log; exit 1; }
	@grep -E "^(--- PASS|ok  )" GAUNTLET.log

# Disk-fault graceful-degradation e2e: two sharded coordinators over
# one state root, SIGUSR1 wedges every partition store one of them has
# mounted mid-run (the daemon stays up), and the script asserts the
# whole chain: quarantine, lease release, healthy-peer takeover and
# re-materialization, every instance completing, and the sick
# coordinator's health surface reporting released-due-to-fault. Real
# daemons and real timing, so one automatic re-run absorbs machine
# noise (same idiom as e2e-shard).
e2e-diskfault:
	bash scripts/e2e_diskfault.sh || \
		{ echo "e2e-diskfault: retrying once to rule out machine noise"; \
		  bash scripts/e2e_diskfault.sh; }

# Deterministic simulation: run the golden-trace scenario catalog
# through wfsim, then the harness's own test suite (scenario replay
# determinism, crash-mid-delay on virtual time, 200-seed fuzz). All on
# a fake clock — the whole target takes seconds. See docs/SCENARIOS.md.
sim:
	$(GO) run ./cmd/wfsim run scenarios/*.scn
	$(GO) test ./internal/sim

# Native fuzzing of the durable record codec, the WAL record reader and
# the script front end, 10 s per target (go test fuzzes one target per
# run). Plain `go test` already replays the checked-in corpora under
# testdata/fuzz; this searches for new inputs. The parser's seeds are
# whole paper scripts, so its target caps the minimisation of each new
# input (-fuzzminimizetime), which would otherwise take the 10 s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecodeRunState$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecodeMeta$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecodeDelay$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecodeSchedule$$' -fuzztime 10s ./internal/execsvc
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzParsePrint$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/script/printer

# Refresh the checked-in golden traces after an intended behavior
# change; the resulting diff is the review artifact.
golden:
	$(GO) run ./cmd/wfsim golden -update scenarios/*.scn
