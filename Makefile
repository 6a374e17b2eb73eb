# Convenience targets for the HORSE reproduction.

.PHONY: all build test test-stress verify bench bench-json bench-micro bench-scale bench-shard bench-check bench-storm bench-policy bench-chain bench-router perf examples clean doc

all: verify

build:
	dune build @all

test:
	dune runtest

# the model-based suites (harness-driven oracle scripts in test_sim,
# test_psm, test_fault) at 10x script length and count, seeds
# 1/42/1337; the plain `dune runtest` tier-1 stays fast
test-stress:
	HORSE_STRESS=1 dune exec test/test_sim.exe
	HORSE_STRESS=1 dune exec test/test_psm.exe
	HORSE_STRESS=1 dune exec test/test_fault.exe
	HORSE_STRESS=1 dune exec test/test_workflow.exe

# the default flow: build, tests (incl. stressed model-based suites),
# regenerate all bench records, gate on them (sweeps must not
# regress; alloc:*, flat:* and storm:path:* must hold 2x; scale:*
# must hold 1.5x on multi-core hosts; policy:* pull tails must not
# lose to push under blackouts; chain:* fused tails must not lose to
# unfused at length >= 3; router:* must hold 1.5x at >= 4 routers on
# multi-core hosts)
verify: build test test-stress bench-json bench-micro bench-scale bench-shard bench-storm bench-policy bench-chain bench-router bench-check

bench:
	dune exec bench/main.exe

# A larger per-domain minor heap for the timed runs: the sweeps
# allocate heavily, and on multi-domain runs every minor collection is
# a stop-the-world across all domains, so fewer collections benefit
# the parallel side the most (the sequential reference gets the same
# setting — the comparison stays fair).
BENCH_RUNPARAM ?= s=8M

# machine-readable wall-clock record (sequential vs parallel per
# experiment, min-of-N interleaved): every timed sweep, recorded into
# BENCH_summary.json; override parallelism with JOBS=n and task
# granularity with CHUNK=n (default: auto — the pool times the first
# thunk and targets ~50us per dispatched task)
JOBS ?= 4
CHUNK ?=
bench-json:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/main.exe -- sweeps --jobs $(JOBS) $(if $(CHUNK),--chunk $(CHUNK)) --json BENCH_summary.json

# quick microbenchmark record: event-queue + run-queue ns/op, words/op
# and the dequeue flatness sweep, in release mode (quick trials are
# enough for the 2x gates; `make perf` records the full-length runs)
bench-micro:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/micro.exe -- --quick --json BENCH_micro.json

# the sharded-engine scale benchmark: big cluster runs (up to 256k
# parked sandboxes / 32k triggers) executed once sequentially and once
# over SHARDS execution tasks, verified bit-identical, wall-clock of
# the run phase recorded into BENCH_scale.json
SHARDS ?= 4
bench-scale:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/main.exe -- scale --shards $(SHARDS) --json BENCH_scale.json

# the adaptive-scheduler quick gate: bit-identity of the adaptive
# scheduler across seeds and shard counts at 20k bursty triggers,
# plus the lock-step-vs-adaptive epoch-reduction point (>= 5x,
# checked by bench-check on shard:epochs:*), recorded into
# BENCH_shard.json — small enough to sit inside `make verify`
bench-shard:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/main.exe -- shard --shards $(SHARDS) --json BENCH_shard.json

# the scheduling-policy shoot-out: push / pull / core-granular over a
# blackout-rate sweep at 10k and 100k triggers with bursty arrivals,
# bit-identity gates across shards and seeds, push-over-pull tail
# ratios at the highest blackout rate recorded into BENCH_policy.json
bench-policy:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/main.exe -- policy --shards $(SHARDS) --json BENCH_policy.json

# the partitioned-router-plane benchmark: bit-identity of every router
# count across shards, seeds and schedulers at 20k triggers, then the
# 100k bursty storm over 32 functions at R in {1,2,4,8}, run-phase
# wall clock per point recorded into BENCH_router.json (router:*
# entries at R >= 4 gated >= 1.5x on multi-core hosts, >= 0.5
# single-core floor, by bench-check)
ROUTERS ?= 4
bench-router:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/main.exe -- router --shards $(SHARDS) --routers $(ROUTERS) --json BENCH_router.json

# the workflow-chain fusion gate: chain length x fusion on/off x
# HORSE/Vanilla with workflow end-to-end tails, bit-identity across
# shards and seeds, fused-over-unfused p99/p999 ratios at length >= 3
# recorded into BENCH_chain.json (gated >= 1.0 by bench-check)
bench-chain:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/main.exe -- chain --shards $(SHARDS) --json BENCH_chain.json

# gate on the recorded artifacts: sweeps at jobs >= 4 must not regress
# (speedup >= 1.0 on multi-core hosts; >= 0.75 overhead floor on a
# single-core host, where >1x is physically impossible); alloc:* and
# storm:path:* entries must show >= 2x fewer words than the boxed
# baselines; flat:* entries must show the arena hot path scaling >= 2x
# flatter than the walking baseline; scale:* and router:* entries must
# show >= 1.5x over sequential (>= 0.5 overhead floor on single-core
# hosts); shard:epochs:* must cut epochs >= 5x; policy:* and chain:*
# virtual-time tail ratios must hold >= 1.0 on every host
bench-check:
	dune exec bench/bench_check.exe -- BENCH_summary.json $(wildcard BENCH_micro.json) $(wildcard BENCH_scale.json) $(wildcard BENCH_shard.json) $(wildcard BENCH_storm.json) $(wildcard BENCH_policy.json) $(wildcard BENCH_chain.json) $(wildcard BENCH_router.json)

# the resume-storm macro-benchmark: 1000 paused uLL sandboxes on one
# ull_runqueue, churn at 0/100/1000 subscribers, then resume them all
# back-to-back (wall-clock; QUICK=1 for a smoke run — `dune runtest`
# runs that one), the cluster-storm identity gate, and the
# boxed-vs-flat trigger-path machinery pair recorded to
# BENCH_storm.json for bench-check
bench-storm:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/storm.exe -- $(if $(QUICK),--quick) --json BENCH_storm.json

# full-length hot-path microbenchmarks (event queue, pool dispatch,
# run queue) in release mode; also records BENCH_micro.json so
# bench-check gates the allocation and flatness budgets
perf:
	OCAMLRUNPARAM=$(BENCH_RUNPARAM) dune exec --profile release bench/micro.exe -- --json BENCH_micro.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/nfv_pipeline.exe
	dune exec examples/trace_replay.exe
	dune exec examples/resume_study.exe
	dune exec examples/fleet.exe

# the artefact outputs referenced by EXPERIMENTS.md
artefacts:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
