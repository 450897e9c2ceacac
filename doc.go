// Package repro is a from-scratch Go reproduction of "A Language for
// Specifying the Composition of Reliable Distributed Applications"
// (F. Ranno, S. K. Shrivastava, S. M. Wheater, ICDCS 1998): the workflow
// scripting language (lexer, parser, checker, printer), its transactional
// execution environment (persistent atomic objects, nested transactions
// with two-phase commit, the workflow repository and execution services
// over an ORB substrate), the paper's three example applications, and the
// related-work baselines (an ECA rule engine and a Petri-net engine).
//
// See README.md for the build/run tour of the commands and examples, the
// package layout, and the scheduler architecture; docs/ARCHITECTURE.md
// is the layer map with file pointers and the end-to-end event-flow
// diagram. The paper's figures and experiments are reproduced by tests
// and sim scenarios; docs/REPRODUCTION.md maps each one to the test
// that checks it. The performance benchmark is the separate module
// under bench/ (workloads, metrics and bounds in BENCHMARK.json).
//
// # Scheduler
//
// The execution engine propagates state transitions through a
// dependency-indexed dirty-set scheduler: a reverse-dependency index
// (producer task -> consumer tasks) is computed once per compiled
// schema, events enqueue only the affected consumers onto a worklist,
// and the worklist is drained in schema-DFS declaration order so
// input-set and alternative-source selection stay deterministic —
// bit-identical to a full rescan of every run, which the engine's
// differential tests keep as their oracle. See
// internal/engine/depindex.go and the "Scheduler architecture" section
// of README.md.
//
// # Temporal subsystem
//
// Time is first-class and crash-safe: internal/timers provides a
// hierarchical timing wheel behind an injectable clock, shared by the
// engine's "delay" tasks (durable timer records re-armed at their
// original absolute deadlines by recovery), its per-activation
// "deadline" bounds, and the execution service's scheduled
// instantiation (execsvc.Scheduler, driven by `wfadmin schedule`). See
// internal/engine/timers.go, internal/execsvc/schedule.go and the
// "Temporal coordination" section of README.md.
//
// # Deterministic simulation
//
// internal/sim composes the real stack — engine, WAL persistence, orb
// transport, executor pool, naming — in one process on one
// timers.FakeClock, gating every task activation so interleavings are
// chosen by the test. Scenario files (scenarios/*.scn, run by
// cmd/wfsim and `go test ./internal/sim`) assert against checked-in
// golden traces; kill-anywhere fault injection drives the real Recover
// paths; seeded fuzz runs replay bit-identically from the seed alone.
// The scenario format and assertion grammar are docs/SCENARIOS.md.
//
// # Observability
//
// internal/obs is the stdlib-only observability core every daemon
// carries: a metrics registry (atomic counters/gauges/histograms,
// Prometheus-text and JSON encoders, names funneled through
// obs/names.go) and cross-process activation tracing (a trace ID
// minted at instantiation and persisted with the instance; spans for
// activation attempts, remote dispatches, executor-side executions,
// recoveries and completions, propagated through orb call metadata so
// coordinator and executor spans stitch into one tree). Exposed via
// the opt-in -debug-addr HTTP listener (/metrics, /trace,
// net/http/pprof) on wfexec, wftask and wfnaming, and via `wfadmin
// metrics` / `wfadmin trace` over the orb. The metric catalogue, span
// taxonomy and design rules are docs/OBSERVABILITY.md.
//
// # Enforced invariants
//
// The system-wide contracts behind these subsystems — all time flows
// through timers.Clock, engine run state commits only via the drain's
// group-commit batch, lock holders never block, goroutines carry a
// visible stop mechanism, metric names come from the obs catalogue —
// are enforced mechanically by the wflint
// multichecker (cmd/wflint, analyzers in internal/lint), which runs in
// `make lint`, in CI, and as a `go vet -vettool`. The invariant
// registry with rationale and the //wflint:allow escape-hatch
// convention is docs/INVARIANTS.md.
package repro
