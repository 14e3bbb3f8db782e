#!/bin/sh
# Tier-1 verification: build everything and run the full test suite.
set -eu
cd "$(dirname "$0")"
dune build
dune runtest

# Re-run the pool, sweep, flat-certification and telemetry suites with
# real concurrency forced, once under each claiming policy: the
# jobs-determinism tests read REPRO_JOBS (worker count) and
# REPRO_SCHEDULE (pinned policy), so this exercises the multi-domain
# path and every claiming order even when the default jobs count is 1.
# sim.flat rides the loop because its differentials against the
# reference simulator (test/engine_ref) include chaos campaigns through
# the parallel harness, run at REPRO_JOBS under the pinned policy.
# kernel.first_use rides it too: just-constructed specs (a Boost tower
# through the parallel harness, a Sampled spec on pool workers) whose
# first kernels race to build the per-spec view tables must reproduce
# the sequential outcomes under every policy.
for schedule in inorder cost chunk:3 chunk:auto; do
  REPRO_JOBS=4 REPRO_SCHEDULE="$schedule" \
    dune exec test/main.exe -- test 'stdx.pool' -q
  REPRO_JOBS=4 REPRO_SCHEDULE="$schedule" \
    dune exec test/main.exe -- test 'sim.harness' -q
  REPRO_JOBS=4 REPRO_SCHEDULE="$schedule" \
    dune exec test/main.exe -- test 'sim.harness.chaos' -q
  REPRO_JOBS=4 REPRO_SCHEDULE="$schedule" \
    dune exec test/main.exe -- test 'sim.flat' -q
  REPRO_JOBS=4 REPRO_SCHEDULE="$schedule" \
    dune exec test/main.exe -- test 'kernel.first_use' -q
done
REPRO_JOBS=4 dune exec test/main.exe -- test 'stdx.metrics' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.telemetry' -q

# The live-observability layer's own determinism suite (span streams
# and heartbeat terminal lines identical at any jobs count / policy)
# with real concurrency forced.
REPRO_JOBS=4 dune exec test/main.exe -- test 'stdx.span' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'stdx.heartbeat' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.obs' -q

# The hunt's determinism contract (byte-identical corpus at any jobs
# count) and the committed regression corpus, with real concurrency:
# sim.hunt re-runs its fixed-seed hunt at REPRO_JOBS under every
# claiming policy; sim.hunt.corpus replays test/corpus/*.jsonl at
# jobs 1 and REPRO_JOBS.
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.hunt' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.hunt.corpus' -q

# The pulling suites, with real concurrency: pulling.sampled runs
# Pull_sim over one Sampled spec shared by REPRO_JOBS domains and must
# reproduce the sequential runs (view tables are per spec and shared,
# kernel scratch is per run); pulling.oracle holds the kernel to the
# boxed reference.
REPRO_JOBS=4 dune exec test/main.exe -- test 'pulling.*' -q

# Codec smoke: A(324,31) needs 65 state bits per node, more than a
# packed state code holds. It must still plan, and `run` must refuse it
# with an error that gives the state bits.
dune exec bin/countctl.exe -- plan --levels 4:1,3:3,3:7,3:15,3:31 > /dev/null
wide_err="$(mktemp)"
if dune exec bin/countctl.exe -- run --levels 4:1,3:3,3:7,3:15,3:31 \
     --rounds 10 > /dev/null 2> "$wide_err"; then
  echo "countctl run simulated a tower wider than 62 bits" >&2
  exit 1
fi
grep -q "65 bits per node, more than the 62 bits" "$wide_err"
rm -f "$wide_err"

# Chaos smoke: a fixed-seed campaign on A(4,1) must re-stabilise after
# every scheduled perturbation (countctl exits non-zero otherwise), and
# must do so identically across worker domains. The emitted trace must
# be analysable by `countctl report` and lint clean as JSONL.
trace_file="$(mktemp)"
dune exec bin/countctl.exe -- chaos --corollary1 1 --campaigns 2 \
  --phases 2 --events 1 --rounds 400 --seeds 1 --jobs 2 \
  --trace "$trace_file" --metrics > /dev/null
dune exec bin/countctl.exe -- report "$trace_file" > /dev/null
dune exec bin/jsonlint.exe -- --jsonl "$trace_file"
rm -f "$trace_file"

# Heartbeat smoke: the same campaign shape with spans on and a
# zero-interval heartbeat must stream JSONL that lints clean, render
# through `countctl watch --once`, and summarise via `report --json`
# (itself valid JSON).
hb_file="$(mktemp)"
dune exec bin/countctl.exe -- chaos --corollary1 1 --campaigns 2 \
  --phases 2 --events 1 --rounds 400 --seeds 1 --jobs 2 \
  --spans --heartbeat 0 --heartbeat-file "$hb_file" > /dev/null
dune exec bin/jsonlint.exe -- --jsonl "$hb_file"
dune exec bin/countctl.exe -- watch "$hb_file" --once > /dev/null
report_json="$(mktemp)"
dune exec bin/countctl.exe -- report "$hb_file" --json > "$report_json"
dune exec bin/jsonlint.exe -- "$report_json"
rm -f "$hb_file" "$report_json"

# Hunt smoke: a fixed-seed hunt against a deliberately over-claimed
# spec (follow-leader claims f=1 but tolerates none) must find failed
# re-stabilisations, shrink them, and write a corpus that lints as
# JSONL and replays to the recorded verdicts under parallel workers.
corpus_file="$(mktemp)"
hunt_hb="$(mktemp)"
dune exec bin/countctl.exe -- hunt --algorithm leader:4:5 --claim-f 1 \
  --bound 8 --trials 48 --rounds 120 --jobs 2 \
  --heartbeat 0 --heartbeat-file "$hunt_hb" \
  --corpus "$corpus_file" > /dev/null
dune exec bin/jsonlint.exe -- --jsonl "$corpus_file"
# The hunt's heartbeat stream carries the hits tally and renders too.
dune exec bin/jsonlint.exe -- --jsonl "$hunt_hb"
dune exec bin/countctl.exe -- watch "$hunt_hb" --once > /dev/null
rm -f "$hunt_hb"
dune exec bin/countctl.exe -- hunt --algorithm leader:4:5 --claim-f 1 \
  --replay "$corpus_file" --jobs 4 > /dev/null
rm -f "$corpus_file"

# The committed regression corpus must keep replaying through countctl
# too (the test suite already replays it in-process).
dune exec bin/countctl.exe -- hunt --algorithm leader:4:5 --claim-f 1 \
  --replay test/corpus/leader4c5_f1.jsonl --jobs 4 > /dev/null

# Regenerate the chaos recovery distributions so the JSON lint below
# covers a fresh BENCH_chaos.json.
dune exec bench/main.exe -- chaos > /dev/null

# Regenerate the engine throughput record (the engine against the
# naive reference simulator, plus GC accounting; the greedy-confusion
# rows measure the bridge around a code-space lookahead, against the
# reference's boxed one); the bench itself exits non-zero if the
# engine's outcome ever differs from the reference's.
dune exec bench/main.exe -- engine > /dev/null

# Regenerate the scheduler record: the jobs ladder and the
# claiming-policy duel (now including the auto-tuned chunk policy,
# whose chosen size the record carries) both exit non-zero if any
# configuration's outcomes diverge from the sequential reference.
dune exec bench/main.exe -- parallel > /dev/null

# Regenerate the hunt record with real workers; the bench exits
# non-zero if the corpus bytes differ between jobs=1 and parallel.
REPRO_JOBS=4 dune exec bench/main.exe -- hunt > /dev/null

# Regenerate the observability overhead record; the bench exits
# non-zero if the instrumented path's outcomes ever diverge from the
# bare engine's.
dune exec bench/main.exe -- obs > /dev/null

# The bench logs must always be well-formed JSON (the at_exit flush is
# crash-safe; a malformed file means that guarantee broke).
for log in BENCH_sweep.json BENCH_parallel.json BENCH_chaos.json \
           BENCH_engine.json BENCH_hunt.json BENCH_obs.json; do
  if [ -f "$log" ]; then
    dune exec bin/jsonlint.exe -- "$log"
  fi
done
