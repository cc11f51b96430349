#!/usr/bin/env bash
# Repo CI gate: tier-1 verification plus lint/format checks.
#
#   ./ci.sh            # everything (what the driver runs)
#   ./ci.sh --fast     # skip the release build (lints + tests only)
#   ./ci.sh --deep     # everything, plus deep-bound interleaving model
#                      # checks and (nightly-only) sanitizer runs
#
# Tier-1 (ROADMAP.md): cargo build --release && cargo test -q
set -euo pipefail
cd "$(dirname "$0")"

fast=0
deep=0
[[ "${1:-}" == "--fast" ]] && fast=1
[[ "${1:-}" == "--deep" ]] && deep=1

echo "==> repo hygiene"
# The harness prints to stdout; its output is recorded in EXPERIMENTS.md,
# never checked in raw. This file was deleted once already — keep it gone.
if [[ -e harness_output.txt ]]; then
  echo "ERROR: stale harness_output.txt reappeared; record results in EXPERIMENTS.md instead" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings, e.g. dangling intra-doc links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

echo "==> vbench: fmt, clippy, tests (its own Cargo workspace, see BENCHMARK.json)"
cargo --offline fmt --check --manifest-path vbench/Cargo.toml
cargo --offline clippy --all-targets --manifest-path vbench/Cargo.toml -- -D warnings
cargo --offline test -q --manifest-path vbench/Cargo.toml

echo "==> serving smoke test (100 requests, zero lost)"
cargo test -q -p vedliot-serve --test serving smoke_100_requests_zero_lost

echo "==> chaos smoke test (200 requests, seeded fault plan, availability >= 0.95)"
cargo test -q -p vedliot-serve --test chaos smoke_200_requests_under_seeded_chaos

echo "==> observability smoke test (traced 50-request run, exact span accounting, exporter goldens)"
cargo test -q -p vedliot-serve --test observe

echo "==> routing smoke test (multi-tenant isolation, priority admission, bit-identity)"
cargo test -q -p vedliot-serve --test routing

echo "==> fleet smoke test (seeded hostile OTA rollout converges to a safe state)"
cargo test -q -p vedliot-fleet --test fleet hostile_plan_converges_to_a_safe_state_and_every_defense_fires

echo "==> SLO smoke test (burn-driven incident: exact causal accounting, deterministic replay)"
cargo test -q -p vedliot-serve --test slo

if [[ $fast -eq 0 ]]; then
  echo "==> analyze sweep (liveness/value-range/quant-safety over the zoo)"
  # `lint --analyze` runs the dataflow analyses and the arena planner
  # over every zoo model; it exits non-zero on Error-severity findings
  # or an analysis failure.
  cargo run -q --release -p vedliot --bin vedliot -- lint --analyze > /dev/null

  echo "==> BENCH gates (fresh snapshot vs checked-in baseline, rules in crates/bench/src/gate.rs)"
  # Each experiment asserts its own hard invariants while it runs and
  # writes a fresh snapshot; `harness gate` then checks every rule of
  # that snapshot's subsystem against the checked-in baseline.
  for pair in kernels:BENCH_pr6.json routing:BENCH_pr7.json fleet:BENCH_pr8.json \
              memory:BENCH_pr9.json slo:BENCH_pr10.json; do
    experiment=${pair%%:*} file=${pair#*:}
    echo "  -> harness $experiment vs $file"
    BENCH_OUT="target/$file" ./target/release/harness "$experiment" > /dev/null
    ./target/release/harness gate "$file" "target/$file"
  done
fi

if [[ $deep -eq 1 ]]; then
  echo "==> deep: interleaving model check at enlarged bounds"
  INTERLEAVE_DEPTH=deep cargo test -q -p vedliot-serve --test interleave

  echo "==> deep: zoo lint sweep (error severity must be clean)"
  cargo run -q --release -p vedliot --bin vedliot -- lint > /dev/null

  # ThreadSanitizer needs -Z sanitizer, a nightly-only flag. The serve
  # crate's lock discipline is model-checked above on stable; when a
  # nightly toolchain is available, also run the real threads under TSan.
  if rustc --version | grep -q nightly; then
    echo "==> deep: ThreadSanitizer over the serve test suite"
    RUSTFLAGS="-Z sanitizer=thread" cargo test -q -p vedliot-serve \
      --target "$(rustc -vV | sed -n 's/host: //p')"
  else
    echo "==> deep: skipping ThreadSanitizer (requires a nightly toolchain; stable $(rustc --version | cut -d' ' -f2) active)"
  fi
fi

echo "CI green."
