#!/usr/bin/env bash
# CI entry point: the static gates first (cheapest, catch policy regressions
# before a long build), then the rustdoc gate, then release build, then
# tests. Fail-fast.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> snbc-audit (hot-alloc and arch gate, no finding tolerated)"
cargo run -q -p snbc-audit

echo "==> cargo clippy (per-site lints: clippy.toml + [workspace.lints.clippy], warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> snbc-audit self-test (tokenizer, item tree, call graph, fixtures)"
cargo test -q -p snbc-audit

echo "==> cargo doc (rustdoc gate, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test --doc (workspace doc-tests)"
cargo test -q --workspace --doc

echo "==> cargo build --release --workspace (the snbc binary the smoke legs run)"
cargo build --release --workspace

echo "==> perfbench self-tests (the benchmark builds against the program's API)"
# A program change that breaks an API perfbench uses fails here rather than
# in the benchmark. No --locked: perfbench/Cargo.lock predates core dropping
# snbc-autodiff, so cargo rewrites it on every build.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q (workspace, default parallelism)"
cargo test -q --workspace

echo "==> cargo test -q (workspace, SNBC_THREADS=1 — guaranteed-serial leg)"
SNBC_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q (runtime and SDP kernels, SNBC_THREADS=3 — more workers than cores, not a power of two)"
SNBC_THREADS=3 cargo test -q -p snbc-par -p snbc-linalg -p snbc-sdp

echo "==> cargo test -q --features sanitize (solver + SOS + par + trace + core crates)"
cargo test -q -p snbc-linalg -p snbc-lp -p snbc-sdp --features snbc-linalg/sanitize
cargo test -q -p snbc-sos --features sanitize
cargo test -q -p snbc-par --features sanitize
cargo test -q -p snbc-trace --features sanitize
# Core: the learner's reduced-gradient finiteness check runs only here.
cargo test -q -p snbc --features sanitize

echo "==> snbc-bench check (run-report regression gate, strict then loose)"
SNBC_THREADS=1 cargo run -q --release -p snbc-bench --bin snbc-bench -- check
SNBC_THREADS=4 cargo run -q --release -p snbc-bench --bin snbc-bench -- check

echo "==> snbc-bench check --suite interval (strict leg + Perfetto trace artifact)"
# The interval suite exercises the parallel branch-and-bound wave engine on
# top of the quickstart synthesis; strict compare pins its deterministic box
# counts. The loose 4-thread leg keeps its trace as a CI artifact
# (target/ci-artifacts/) — the worked example in docs/PERFORMANCE.md.
mkdir -p target/ci-artifacts
SNBC_THREADS=1 cargo run -q --release -p snbc-bench --bin snbc-bench -- check --suite interval
SNBC_THREADS=4 cargo run -q --release -p snbc-bench --bin snbc-bench -- check --suite interval \
  --trace target/ci-artifacts/interval-trace.json
grep -q '"schema":"snbc-trace/1"' target/ci-artifacts/interval-trace.json

echo "==> snbc-bench check --suite portfolio (racing + cache regression gate)"
# The portfolio suite runs a two-job batch twice through one scratch cache:
# the strict 1-thread leg pins the deterministic winner indices and the
# cold-hit/cold-miss counters; the 4-thread leg proves the racing layer is
# thread-count-invariant end to end.
SNBC_THREADS=1 cargo run -q --release -p snbc-bench --bin snbc-bench -- check --suite portfolio
SNBC_THREADS=4 cargo run -q --release -p snbc-bench --bin snbc-bench -- check --suite portfolio

echo "==> snbc-bench check --suite highdim (an n >= 6 row: Lyapunov warm start)"
# C10 with its Table 1 configuration, the cheapest row that warm-starts: the
# strict leg pins the `warm-start` span beside `approx` plus the exact
# epoch/IPM/Cholesky/LP counters; the 4-thread leg gates outcome and wall.
SNBC_THREADS=1 cargo run -q --release -p snbc-bench --bin snbc-bench -- check --suite highdim
SNBC_THREADS=4 cargo run -q --release -p snbc-bench --bin snbc-bench -- check --suite highdim

echo "==> snbc batch smoke (cold race streams NDJSON, warm cache must serve every job)"
batch_tmp="$(mktemp -d)"
target/release/snbc batch examples/batch_jobs.json \
  --cache-dir "$batch_tmp/cache" --report target/ci-artifacts/batch-report.json \
  --progress - --metrics-out target/ci-artifacts/metrics.prom \
  > target/ci-artifacts/progress.ndjson
# stdout hygiene: with `--progress -` every stdout line must be an NDJSON
# event (human progress goes to stderr — docs/OBSERVABILITY.md).
awk '!/^\{"seq":/ { bad = 1 } END { exit bad }' target/ci-artifacts/progress.ndjson
grep -q '"schema":"snbc-progress/2"' target/ci-artifacts/progress.ndjson
grep -q '^snbc_' target/ci-artifacts/metrics.prom
target/release/snbc batch examples/batch_jobs.json \
  --cache-dir "$batch_tmp/cache" --report "$batch_tmp/warm.json" --require-all-hits > /dev/null
cmp target/ci-artifacts/batch-report.json "$batch_tmp/warm.json"
grep -q '"schema": "snbc-batch-report/1"' target/ci-artifacts/batch-report.json
rm -rf "$batch_tmp"

echo "==> observability determinism (canonical stream/snapshot vs threads and cache temperature)"
obs_tmp="$(mktemp -d)"
SNBC_THREADS=1 target/release/snbc batch examples/batch_jobs.json \
  --cache-dir "$obs_tmp/cache-a" --progress "$obs_tmp/p1.ndjson" --canonical \
  --metrics-json "$obs_tmp/m1.json" > /dev/null
SNBC_THREADS=4 target/release/snbc batch examples/batch_jobs.json \
  --cache-dir "$obs_tmp/cache-b" --progress "$obs_tmp/p4.ndjson" --canonical \
  --metrics-json "$obs_tmp/m4.json" > /dev/null
SNBC_THREADS=4 target/release/snbc batch examples/batch_jobs.json \
  --cache-dir "$obs_tmp/cache-a" --require-all-hits \
  --progress "$obs_tmp/pw.ndjson" --canonical --metrics-json "$obs_tmp/mw.json" > /dev/null
cmp "$obs_tmp/p1.ndjson" "$obs_tmp/p4.ndjson"
cmp "$obs_tmp/p1.ndjson" "$obs_tmp/pw.ndjson"
cmp "$obs_tmp/m1.json" "$obs_tmp/m4.json"
cmp "$obs_tmp/m1.json" "$obs_tmp/mw.json"
grep -q '"schema":"snbc-progress/2"' "$obs_tmp/p1.ndjson"
grep -q '"schema": "snbc-metrics/2"' "$obs_tmp/m1.json"
rm -rf "$obs_tmp"

echo "==> snbc synth --trace smoke (Perfetto export) and snbc check (certificate re-check)"
trace_tmp="$(mktemp -d)"
target/release/snbc example > "$trace_tmp/plant.sys"
target/release/snbc synth "$trace_tmp/plant.sys" --trace "$trace_tmp/trace.json" > /dev/null
grep -q '"schema":"snbc-trace/1"' "$trace_tmp/trace.json"
# The shallow (LMI) and deep (LMI + interval) re-checks must accept a fresh
# certificate, and an unknown flag must be an error, not a shallow check.
target/release/snbc synth "$trace_tmp/plant.sys" --out "$trace_tmp/plant.cert" > /dev/null
target/release/snbc check "$trace_tmp/plant.sys" "$trace_tmp/plant.cert"
target/release/snbc check "$trace_tmp/plant.sys" "$trace_tmp/plant.cert" --deep
if target/release/snbc check "$trace_tmp/plant.sys" "$trace_tmp/plant.cert" --bogus; then
  echo "snbc check accepted an unknown flag" >&2
  exit 1
fi
rm -rf "$trace_tmp"

echo "==> malformed inputs (snbc synth / check must exit 1 with an error message, never panic)"
# A panic exits 101 and a stack overflow aborts with 134; outside input
# must get a typed error instead.
bad_tmp="$(mktemp -d)"
expect_rejected() {
  local code=0
  "$@" > /dev/null 2> "$bad_tmp/stderr" || code=$?
  if [ "$code" -ne 1 ] || ! grep -q '^error: ' "$bad_tmp/stderr"; then
    echo "expected exit 1 and an error message from: $* (exit $code)" >&2
    head -c 2000 "$bad_tmp/stderr" >&2
    exit 1
  fi
}
target/release/snbc example > "$bad_tmp/good.sys"
printf 'snbc-certificate v1\nsystem: c3-demo\nbarrier: 1 - x0^2\nlambda: 0\ncontroller: -0.5*x0\nsigma_star: 0\n' \
  > "$bad_tmp/good.cert"
# `bad_system KEY LINE` replaces the KEY line of the example with LINE.
bad_system() {
  sed "s|^$1.*|$2|" "$bad_tmp/good.sys" > "$bad_tmp/bad.sys"
  expect_rejected target/release/snbc synth "$bad_tmp/bad.sys"
  expect_rejected target/release/snbc check "$bad_tmp/bad.sys" "$bad_tmp/good.cert"
}
# `nested KEY FILE` writes FILE with its KEY line replaced by 200 000 `(`
# (keys may come in any order, and the line is too long for an argument).
nested() {
  { grep -v "^$1" "$2"; printf '%s ' "$1"; head -c 200000 /dev/zero | tr '\0' '('; echo; }
}
bad_system 'state:' 'state: 0'
bad_system 'init:' 'init: box NaN 0.3 -0.3 0.3'
bad_system 'domain:' 'domain: box -inf 2 -2 2'
bad_system 'init:' 'init: ball 0 0 NaN'
bad_system 'f0:' 'f0: x3'
bad_system 'f0:' 'f0: x4000000000'
nested 'f1:' "$bad_tmp/good.sys" > "$bad_tmp/bad.sys"
expect_rejected target/release/snbc synth "$bad_tmp/bad.sys"
bad_system 'controller:' 'controller: -0.5*x0^4294967295'
bad_certificate() {
  sed "s|^$1.*|$2|" "$bad_tmp/good.cert" > "$bad_tmp/bad.cert"
  expect_rejected target/release/snbc check "$bad_tmp/good.sys" "$bad_tmp/bad.cert"
}
bad_certificate 'sigma_star:' 'sigma_star: NaN'
bad_certificate 'sigma_star:' 'sigma_star: -1'
nested 'barrier:' "$bad_tmp/good.cert" > "$bad_tmp/bad.cert"
expect_rejected target/release/snbc check "$bad_tmp/good.sys" "$bad_tmp/bad.cert"
bad_certificate 'barrier:' 'barrier: (x0+x1+x2+x3+x4+x5+x6+x7+x8+x9)^50'
# Parses, but its SOS programs would need a Gram basis of 2 145 monomials.
bad_certificate 'barrier:' 'barrier: 1 - x0^2 - 0.000000001*x0^64*x1^64'
rm -rf "$bad_tmp"

echo "==> docs cross-link check (tuning guide must stay discoverable)"
grep -q 'docs/PERFORMANCE.md' README.md

echo "CI OK"
