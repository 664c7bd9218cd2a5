#!/usr/bin/env bash
# Full local verification gate: build, test, static lint ratchet, and
# clippy-clean first-party crates (every `crates/*` member, the root
# `a3cs` package and perfbench). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace (includes tests/fault_tolerance.rs: crash-resume equivalence + fault injection)"
cargo test -q --workspace

echo "==> telemetry smoke (tiny co-search, JSONL schema + phase spans)"
cargo run -q --release -p a3cs-bench --bin telemetry_smoke

echo "==> supervision smoke (worker panic + stall contained in-process)"
cargo run -q --release -p a3cs-bench --bin supervision_smoke

echo "==> memo smoke (cost-cache bit-identity + hit-rate floor + beam determinism)"
cargo run -q --release -p a3cs-bench --bin memo_smoke

echo "==> fleet smoke (4 sessions, injected crash isolated + one restart)"
cargo run -q --release -p a3cs-bench --bin fleet_smoke

echo "==> obs smoke (live /metrics + /healthz + /fleet validated end-to-end)"
cargo run -q --release -p a3cs-bench --bin obs_smoke

echo "==> ckpt smoke (delta chain bit-rot quarantined + fallback bit-identical)"
cargo run -q --release -p a3cs-bench --bin ckpt_smoke

echo "==> perfbench build + self-tests (tiny workloads through the output checks, committed lock file)"
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> a3cs-check determinism lint (deny new findings + stale allowlist)"
cargo run -q -p a3cs-check --bin lint -- --deny-new

echo "==> threadpool tests under -D warnings"
RUSTFLAGS="-D warnings" cargo test -q -p threadpool

echo "==> clippy (every first-party crate, -D warnings)"
cargo clippy -q -p a3cs-check -p a3cs-tensor -p a3cs-nn -p a3cs-nas -p a3cs-core -p a3cs-drl \
    -p a3cs-fleet -p a3cs-envs -p a3cs-bench -p a3cs-accel -p a3cs-obs -p a3cs \
    --all-targets --no-deps -- -D warnings

echo "==> clippy (perfbench, its own manifest, -D warnings)"
cargo clippy -q --offline --manifest-path perfbench/Cargo.toml --all-targets --no-deps -- -D warnings

echo "all checks passed"
