#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc, the full test suite, the
# event-core golden differential gate, one bench gate per scenario of
# `medusa_bench::smoke::SCENARIOS` (each re-runs its scenario fresh and
# compares it with the committed results/BENCH_<scenario>.json, metric by
# metric, plus the scenario's declared invariants), every example
# end-to-end, the CLI fleet twice per registry mode, three CLI usage errors
# that must exit 2, the paper record
# (`repro all` against results/repro_all.txt), a build and a 1 s smoke
# run per workload of the fixed perfbench harness, the fault matrix and the
# tokenizer, MAF2 and registry decoders again in release, the proptest
# regression-corpus check, and the concurrency stress test (sized for
# --release, hence run separately).
#
# `./ci.sh` runs everything; `./ci.sh --gate <name>` runs one simulator
# gate in isolation (as the CI matrix does), where <name> is `golden` or a
# bench scenario:
#   golden | coldstart | cluster | cluster_multitenant | artifact | scale |
#   policies | registry
#
# After an intentional change to a scenario's numbers, regenerate its
# baseline with `./ci.sh --gate <scenario>` and then
# `cp target/BENCH_<scenario>.json results/`.
set -euo pipefail
cd "$(dirname "$0")"

SCENARIOS="coldstart cluster cluster_multitenant artifact scale policies registry"
GATES="golden $SCENARIOS"

usage() {
  echo "usage: ./ci.sh [--gate <name>]"
  echo "gates: $GATES"
}

GATE="all"
case "${1:-}" in
"") ;;
--gate)
  GATE="${2:-}"
  if [ -z "$GATE" ]; then
    usage
    exit 2
  fi
  ;;
-h | --help)
  usage
  exit 0
  ;;
*)
  usage
  exit 2
  ;;
esac

prune_stale() {
  # Stale outputs from a previous run can mask a failure: a leftover
  # golden.diff or BENCH_*.json would be diffed/uploaded in place of
  # this run's output. Gates always start from a clean slate.
  mkdir -p target
  rm -rf target/golden-check target/golden-check-release
  rm -f target/golden.diff target/BENCH_*.json
}

gate_golden() {
  echo "==> event-core differential gate (golden ClusterReports)"
  # Regenerate the seed x scheduler x fault matrix into a scratch dir and
  # byte-diff against the committed oracle; any observable change to the
  # fleet simulator's semantics must re-commit results/golden/ on purpose.
  # Both builds: debug builds re-run the drains a release build skips and
  # assert they change nothing, so only the release build takes the skip.
  cargo run -q -p medusa-bench --bin ci-check-bench -- golden target/golden-check
  cargo run --release -q -p medusa-bench --bin ci-check-bench -- golden target/golden-check-release
  for dir in target/golden-check target/golden-check-release; do
    if ! diff -ru results/golden "$dir" >target/golden.diff; then
      echo "FAIL: event core diverged from committed golden reports ($dir):"
      cat target/golden.diff
      exit 1
    fi
  done
  echo "    all golden reports byte-identical (debug and release)"
}

gate_bench() {
  echo "==> bench gate $1 (fresh run vs results/BENCH_$1.json)"
  # Release build: the artifact and scale scenarios also time host work.
  # The fresh report lands in target/ first, so CI can upload it when the
  # gate fails.
  cargo run --release -q -p medusa-bench --bin ci-check-bench -- \
    gate "$1" "results/BENCH_$1.json" "target/BENCH_$1.json"
}

if [ "$GATE" != "all" ]; then
  case " $GATES " in
  *" $GATE "*) ;;
  *)
    echo "unknown gate: $GATE"
    usage
    exit 2
    ;;
  esac
  prune_stale
  SECONDS=0
  if [ "$GATE" = golden ]; then
    gate_golden
  else
    gate_bench "$GATE"
  fi
  echo "CI OK (gate $GATE, ${SECONDS}s)"
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> proptest regression corpus (tracked and non-empty when present)"
# Convention (DESIGN.md): proptest failure persistence files are a shared
# regression corpus — when one exists it must be committed, and an empty
# file is a broken merge, not a corpus.
PROPTEST_FILES="$(find . -path ./target -prune -o -path ./.git -prune -o \
  \( -name '*.proptest-regressions' -o -path '*/proptest-regressions/*' \) \
  -type f -print)"
if [ -z "$PROPTEST_FILES" ]; then
  echo "    none present - OK"
else
  while IFS= read -r f; do
    if ! git ls-files --error-unmatch "$f" >/dev/null 2>&1; then
      echo "FAIL: $f is not tracked by git - commit the regression corpus"
      exit 1
    fi
    if [ ! -s "$f" ]; then
      echo "FAIL: $f is empty - delete it or commit the real regressions"
      exit 1
    fi
    echo "    $f - tracked, non-empty"
  done <<<"$PROPTEST_FILES"
fi

echo "==> no allow(deprecated) anywhere (the compat shims are gone)"
BAD="$(git grep -l 'allow(deprecated)' -- '*.rs' || true)"
if [ -n "$BAD" ]; then
  echo "FAIL: allow(deprecated) found - migrate off the deprecated names:"
  echo "$BAD"
  exit 1
fi
echo "    none found"

echo "==> cargo test (workspace)"
cargo test --workspace -q

prune_stale

gate_golden

echo "==> fault-injection matrix (debug + release)"
cargo test -q --test faults
cargo test --release -q --test faults

echo "==> tokenizer, MAF2 and registry decoders (debug + release)"
# Release arithmetic wraps where debug panics, so the vocabulary file's,
# the MAF2 graph records' and the registry records' offset and length
# checks must hold under both.
cargo test -q --test tokenizer_identity --test tokenizer_file --test artifact_format \
  --test registry_decode
cargo test --release -q --test tokenizer_identity --test tokenizer_file --test artifact_format \
  --test registry_decode

echo "==> examples (release, end-to-end)"
cargo build --release -q --examples
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  echo "    running example $name"
  cargo run --release -q --example "$name" >/dev/null
done

echo "==> CLI fleet (release, twice per registry mode, conservation residual 0)"
# The same faulty multi-tenant locality fleet under whole-artifact and
# content-addressed registries, run twice each: every offered request must
# be accounted, and the two telemetry exports must be byte-identical.
for mode in whole cas; do
  for run in a b; do
    OUT="$(cargo run --release -q --bin medusa-cli -- cluster --nodes 8 --rps 4 \
      --duration 20 --models 4 --cache-cap 2 --faults flaky-registry,node-crash \
      --scheduler locality --registry "$mode" --telemetry "target/cli-$mode-$run.prom")"
    if ! grep -qE 'conservation residual 0$' <<<"$OUT"; then
      echo "FAIL: medusa-cli cluster --registry $mode lost or duplicated requests:"
      echo "$OUT"
      exit 1
    fi
  done
  if cmp -s "target/cli-$mode-a.prom" "target/cli-$mode-b.prom"; then
    echo "    registry $mode - conserved, telemetry reproducible"
  else
    echo "FAIL: medusa-cli cluster --registry $mode exported different telemetry on a rerun"
    exit 1
  fi
done

echo "==> CLI usage errors (release, exit 2)"
# A flag outside a command's table (here one that was removed), a value
# given to a switch and two flags the usage offers as alternatives must
# fail as usage errors, not run a configuration nobody asked for.
for args in "cluster --nodes 2 --rps 1 --duration 5 --eval-interval 1" \
  "coldstart --model Qwen1.5-0.5B --warm false" \
  "cluster --nodes 2 --cache-cap 1 --cache-cap-bytes 5"; do
  read -ra argv <<<"$args"
  code=0
  cargo run --release -q --bin medusa-cli -- "${argv[@]}" >/dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: medusa-cli $args exited $code, not 2 (usage error)"
    exit 1
  fi
  echo "    medusa-cli $args - exit 2"
done

echo "==> paper record (repro all matches results/repro_all.txt)"
# The committed figure/table record is what `repro all` prints; any change
# to a simulated number must regenerate it on purpose.
cargo run --release -q -p medusa-bench --bin repro -- all | diff results/repro_all.txt -

echo "==> perfbench (the fixed benchmark harness) builds against the current API"
# perfbench/ is never edited alongside the code it measures, so a public
# API change that breaks it must fail here rather than in the benchmark.
cargo build --release -q --offline --manifest-path perfbench/Cargo.toml \
  --target-dir target/perfbench

echo "==> perfbench smoke (every workload's operations pass their checks)"
# perfbench exits 0 even when operations fail their checks; its verdict is
# the "correct" field of the JSON summary on its last line. The traced
# coldstart run replays every restore through the public per-layer calls
# (validate_bundle, materialize_all, restore_graph, KernelResolver), which
# the untraced runs never reach; the traced fleet runs check their
# telemetry-on pass against the untraced report (fleet_scale on 1,000
# nodes). Spans go to the git-ignored perfbench/out/.
for run in "coldstart 0" "fleet_scale 0" "fleet_tenants 0" "coldstart 1" "fleet_tenants 1" \
  "fleet_scale 1"; do
  read -r w t <<<"$run"
  LAST="$(target/perfbench/release/medusa-perfbench --workload "$w" \
    --seed 1 --seconds 1 --trace "$t" | tail -n 1)"
  case "$LAST" in
  *'"correct":true'*) echo "    $w (trace $t) - correct" ;;
  *)
    echo "FAIL: perfbench $w (trace $t): operations failed their checks:"
    echo "$LAST"
    exit 1
    ;;
  esac
done

for s in $SCENARIOS; do
  gate_bench "$s"
done

echo "==> stress test (release)"
CORES="$(cargo run -q -p medusa-bench --bin ci-check-bench -- cores)"
if [ "$CORES" -lt 2 ]; then
  echo "SKIP: stress test needs >=2 cores to exercise real thread interleavings;"
  echo "      this host reports available_parallelism=$CORES."
else
  cargo test --release -q --test stress -- --include-ignored
fi

echo "CI OK"
