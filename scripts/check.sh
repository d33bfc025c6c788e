#!/usr/bin/env sh
# Full local gate: what CI runs, in the order that fails fastest.
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
# The whole tier-1 suite, once. The machine's arrival-placement tests
# schedule one plan both as a sorted stream and through the side heap;
# the fleet's smoke reports are pinned by digest.
cargo test --workspace -q

echo "==> cargo test --release (benchmark package)"
# The benchmark is a package of its own (benchmark/Cargo.toml). Building
# it proves that the library names it compiles against still build:
# EngineQueue, EngineKind, EngineChoice, Machine::engine_kind and the
# &str storm constructors, kept only for it. Its per-workload smoke tests
# run every workload's output check, traced and untraced, so a library
# change that breaks a workload fails here before any benchmark run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints the tests and examples too, not just the libraries
# and binaries.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
# Broken, ambiguous or private intra-doc links fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> smoke fault-injection campaign (7 scenarios, fixed seed)"
# Fails on any monitored-mode oracle violation, or if the unmonitored
# baseline fails to demonstrate an independence violation. --metrics also
# exercises the flight-recorder observability layer.
cargo run --release -q -p rthv-experiments --bin campaign \
    target/CAMPAIGN_smoke.json 7 16392212 \
    --metrics target/OBS_smoke.json

echo "==> metrics-determinism smoke (re-run, compare campaign + obs snapshots)"
# Metrics are pure observation: a second identical run must reproduce both
# the campaign report and the metrics snapshot byte-for-byte.
cargo run --release -q -p rthv-experiments --bin campaign \
    target/CAMPAIGN_smoke_rerun.json 7 16392212 \
    --metrics target/OBS_smoke_rerun.json
cmp target/CAMPAIGN_smoke.json target/CAMPAIGN_smoke_rerun.json \
    || { echo "campaign report is not deterministic"; exit 1; }
cmp target/OBS_smoke.json target/OBS_smoke_rerun.json \
    || { echo "metrics snapshot is not deterministic"; exit 1; }

echo "==> kill-then-resume smoke (abort mid-campaign, resume, compare reports)"
# The same campaign, killed via abort() after two scenarios are journaled,
# then resumed from the journal. The resumed report must be byte-identical
# to the uninterrupted one above — --resume can never change a number.
rm -f target/CAMPAIGN_smoke_journal.jsonl target/CAMPAIGN_smoke_resumed.json
cargo run --release -q -p rthv-experiments --bin campaign \
    target/CAMPAIGN_smoke_resumed.json 7 16392212 \
    --journal target/CAMPAIGN_smoke_journal.jsonl --abort-after 2 || true
test ! -f target/CAMPAIGN_smoke_resumed.json \
    || { echo "aborted run must not write a report"; exit 1; }
cargo run --release -q -p rthv-experiments --bin campaign \
    target/CAMPAIGN_smoke_resumed.json 7 16392212 \
    --resume target/CAMPAIGN_smoke_journal.jsonl \
    --journal target/CAMPAIGN_smoke_journal.jsonl
cmp target/CAMPAIGN_smoke.json target/CAMPAIGN_smoke_resumed.json \
    || { echo "resumed report differs from uninterrupted run"; exit 1; }

echo "==> smoke admission-fleet storm"
# The sharded δ⁻ admission fleet under seeded crash/stall storms: exits
# non-zero on any failover-arm Eq. 13-16 bound violation, a fresh-state
# baseline that fails to break the bound, or a flood shed rate over the
# stated budget.
cargo run --release -q -p rthv-experiments --bin admit_storm \
    target/STORM_smoke.json 5 16392212 --smoke
grep -q '"failover_violations":0' target/STORM_smoke.json \
    || { echo "admission-fleet failover arm tripped the independence oracle"; exit 1; }

echo "==> smoke tenant-isolation storm"
# The two-level tenant hierarchy under correlated-failure storms: exits
# non-zero unless the hierarchy keeps the victim tenant's admitted stream
# byte-identical under aggressor floods plus crashes, the flat ablation
# demonstrably does not, and the per-tenant oracle reports zero group- and
# global-budget violations.
cargo run --release -q -p rthv-experiments --bin admit_storm \
    target/STORM_tenants.json 3 16392212 --smoke --tenants
grep -q '"tenant_isolated":true' target/STORM_tenants.json \
    || { echo "tenant hierarchy failed to isolate the victim tenant"; exit 1; }
grep -q '"flat_ablation_broken":true' target/STORM_tenants.json \
    || { echo "flat ablation failed to demonstrate cross-tenant interference"; exit 1; }

echo "==> smoke multi-core platform storm"
# The multi-core platform campaign: core counts {1,2,4} x two placement
# arms under seeded core-crash/route-stall storms. Exits non-zero on any
# monitored per-victim-core oracle violation, a victim stream that moves
# across core counts on a crash-free scenario, or a failover-disabled
# ablation that fails to break independence.
cargo run --release -q -p rthv-experiments --bin smp_storm \
    target/STORM_smp.json 5 16392212 --smoke
grep -q '"monitored_clean":true' target/STORM_smp.json \
    || { echo "budgeted failover arm tripped the per-core independence oracle"; exit 1; }
grep -q '"identity_held":true' target/STORM_smp.json \
    || { echo "victim stream moved across core counts on a crash-free scenario"; exit 1; }
grep -q '"ablation_broken":true' target/STORM_smp.json \
    || { echo "failover-disabled ablation failed to demonstrate an independence violation"; exit 1; }

echo "==> smoke supervised campaign (nominal + 7 fault families, fixed seed)"
# Fails on any oracle violation (quarantine soundness included), a
# quarantine on the nominal ablation, a storm/flood scenario that never
# quarantines or never recovers, or supervision failing to strictly
# reduce well-behaved victims' worst-case service loss there.
cargo run --release -q -p rthv-experiments --bin supervised \
    target/CAMPAIGN_supervised_smoke.json 16392212

echo "==> paper experiments (every figure and table)"
# `all` runs every experiment behind the paper's figures and tables at full
# scale and prints one summary; a panicking experiment fails the gate.
cargo run --release -q -p rthv-experiments --bin all > target/ALL.txt

echo "==> bench_export (timing probes and their identity asserts)"
# The exporter panics if the parallel Fig. 6c pass differs from the
# sequential one, or if an on/off probe's two arms make different
# admission decisions. Its timings are host-dependent and gate nothing:
# an overhead ratio over its budget only prints a warning.
cargo run --release -q -p rthv-experiments --bin bench_export \
    target/BENCH_check.json --metrics target/OBS_bench.json

echo "==> usage errors (non-numeric count or seed: exit 2, no report)"
# Every campaign binary parses its command line in the shared driver: a
# malformed count (or, for supervised, seed) is a usage error, exit 2,
# before any scenario runs or any file is written.
for bin in campaign supervised admit_storm smp_storm; do
    rm -f "target/USAGE_$bin.json"
    status=0
    cargo run --release -q -p rthv-experiments --bin "$bin" \
        "target/USAGE_$bin.json" seven 2>/dev/null || status=$?
    test "$status" -eq 2 \
        || { echo "$bin: a non-numeric count or seed exited $status, expected 2"; exit 1; }
    test ! -f "target/USAGE_$bin.json" \
        || { echo "$bin: a usage error wrote a report"; exit 1; }
done

echo "All checks passed."
