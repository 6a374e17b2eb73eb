# Convenience targets for the HORSE reproduction.

.PHONY: all build test test-stress verify bench bench-micro bench-gates golden-full perf examples artefacts clean

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

# the default flow: build, tests (incl. stressed model-based suites,
# micro.exe's hot-path allocation budgets and the quick bench gates),
# then every bench gate at full scale and the slow goldens.  No record
# is written: each
# bench section checks its own gates and exits non-zero below a floor
# (bench/main.ml, top comment).
verify: build test test-stress bench-micro bench-gates golden-full

bench:
	dune exec bench/main.exe

# Every timed run below uses a larger per-domain minor heap
# (OCAMLRUNPARAM=s=8M): the sweeps allocate heavily, and on
# multi-domain runs every minor collection is a stop-the-world across
# all domains, so fewer collections benefit the parallel side the most
# (the sequential reference gets the same setting — the comparison
# stays fair).

# quick wall-clock microbenchmarks in release mode: event-queue,
# run-queue and router-decide ns/op and words/op, the dequeue and
# P²SM-splice flatness ratios, coalesced vs iterated load updates and
# the resume storm; exits non-zero when a row is over its budget (the
# table at the top of bench/micro.ml).  `make perf` runs the
# full-length trials.
bench-micro:
	OCAMLRUNPARAM=s=8M dune exec --profile release bench/micro.exe -- --quick

# every bench gate, each checked by the section that measures it:
# sweeps timed sequential vs 4 strands (par >= seq), the sharded scale
# runs and the partitioned router plane (>= 1.5x at >= 4 shards /
# routers; both floors fall to an overhead bound on a 1-core host),
# lock-step vs adaptive epochs (>= 5x), pull vs push tails under
# blackouts and fused vs unfused chain tails (>= 1.0)
bench-gates:
	OCAMLRUNPARAM=s=8M dune exec --profile release bench/main.exe -- sweeps shard chain policy scale router --jobs 4

# the golden outputs too slow for `dune runtest` (about 1 min in
# release mode): the `shard`, `chain` and `policy` sections must match
# test/golden/shard_chain_policy.expected byte for byte.  After an
# intended change of behaviour, regenerate the file with the same
# command and commit the diff.
golden-full:
	OCAMLRUNPARAM=s=8M dune exec --profile release bench/main.exe -- shard chain policy --jobs 2 | diff test/golden/shard_chain_policy.expected -

# full-length wall-clock microbenchmarks in release mode, budgets
# enforced
perf:
	OCAMLRUNPARAM=s=8M dune exec --profile release bench/micro.exe

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
