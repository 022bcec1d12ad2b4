#!/usr/bin/env sh
# Full local gate: build, tests, formatting, lints — all offline-safe.
# Run from the repo root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test (workspace)"
cargo test -q --offline --workspace

echo "==> cargo test --release (relia-core and relia-leakage bit-identity oracles on optimized codegen)"
# Debug builds do not vectorize the lane-parallel AC walk or the leakage
# lanes; the proptests comparing them (and the slicing-by-8 CRC-32) with
# their scalar references bit for bit, and the pinned leakage-table
# fingerprints, must also hold on the code the release binaries run.
cargo test -q --offline --release -p relia-core -p relia-leakage

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
# Besides clippy's defaults, this lane carries the workspace lints of the
# root Cargo.toml: no `unwrap`/`expect` and no stdout/stderr printing in
# library code (test code is exempt through clippy.toml; binaries and
# examples opt out at their crate root), and every `#[expect]` must still
# fire. rustc's `unsafe_code = "deny"` already fails the build above.
# `--keep-going` lets one run list every failing target: without it cargo
# stops scheduling at the first package whose lints fail.
cargo clippy --offline --keep-going --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (no broken, ambiguous or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> relia lint (unit, reliability & concurrency invariants)"
# Workspace-wide, machine-readable, parallel; any non-suppressed finding
# fails the gate. JSON keeps the failure output one-line-per-finding.
target/release/relia lint --format json --jobs 4

# Boots the release CLI's `relia serve` on an ephemeral port with the given
# flags, in the background, and waits for it to print its address: sets
# serve_pid, serve_addr and serve_log, or fails the gate.
start_serve() {
    serve_log="$(mktemp)"
    target/release/relia serve --addr 127.0.0.1:0 "$@" >"$serve_log" &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 1 100); do
        serve_addr="$(sed -n 's/^relia-serve listening on //p' "$serve_log")"
        [ -n "$serve_addr" ] && return 0
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "relia serve died before binding:" >&2
            cat "$serve_log" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "relia serve never printed its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}

echo "==> relia serve (boot, loadgen smoke, graceful drain)"
# Boot the real CLI binary on an ephemeral port, fire 1k mixed requests
# through the byte-parity load generator, and let it drain the server via
# POST /admin/shutdown. Both processes must exit 0.
start_serve --threads 4
cargo run -q --offline --release -p relia-serve --example loadgen -- \
    --requests 1000 --threads 2 --addr "$serve_addr"
wait "$serve_pid"
rm -f "$serve_log"

echo "==> relia serve (observability: /metrics histograms, /debug/trace shape)"
# Boot the real CLI with tracing on, fire degrade traffic through the
# probe, and validate the observability surface: build info + uptime on
# /metrics, every phase histogram with non-decreasing cumulative buckets
# and a consistent +Inf/_count pair, an `eval` and a `serialize` sample
# and one memo-cache hit or miss per degrade request, and /debug/trace
# JSON of the pinned span schema. The probe exits non-zero on any
# violation.
start_serve --threads 2 --trace 256
cargo run -q --offline --release -p relia-serve --example obs_probe -- --addr "$serve_addr"
wait "$serve_pid"
rm -f "$serve_log"

echo "==> relia serve (chaos: seeded socket faults, drain)"
# Self-hosted chaos run: 48 connections through a seeded mix of socket
# faults (slow dribbles, short writes, mid-body disconnects, truncation,
# stalled keep-alives). The example asserts the metrics ledger balances,
# no worker dies, and graceful drain completes — exit 0 or the gate fails.
cargo run -q --offline --release -p relia-serve --example chaos -- \
    --seed 7 --conns 48 --threads 4

echo "==> relia fleet (10k smoke, percentile sanity, resume)"
# One 10k-sample run through the release CLI, a sanity pass over the
# printed table (every statistic finite, p50 <= p90 <= p99 per row), then
# resumes from the full, a torn and a half checkpoint that must each print
# byte-identical output.
fleet_ckpt="$(mktemp -u)"
fleet_first="$(target/release/relia fleet --samples 10000 --checkpoint "$fleet_ckpt" 2>/dev/null)"
printf '%s\n' "$fleet_first" | grep -q "lifetime: p01" || {
    echo "fleet output lacks the lifetime line" >&2
    exit 1
}
printf '%s\n' "$fleet_first" | awk '
    $1 ~ /s$/ && $NF ~ /%$/ {
        row = $0
        gsub(/%/, "")
        for (i = 2; i <= 7; i++) if ($i + 0 != $i) {
            print "fleet: non-finite statistic in: " row; exit 1
        }
        if ($4 > $5 || $5 > $6) {
            print "fleet: percentiles not monotone in: " row; exit 1
        }
        rows++
    }
    END { if (rows < 1) { print "fleet: no statistics rows"; exit 1 } }' || exit 1
fleet_second="$(target/release/relia fleet --samples 10000 --checkpoint "$fleet_ckpt" 2>/dev/null)"
if [ "$fleet_first" != "$fleet_second" ]; then
    echo "fleet: resumed run diverged from the first" >&2
    exit 1
fi
# A torn tail (crash mid-append) is recomputed on the first resume and
# healed on disk, so the second resume executes nothing.
truncate -s -7 "$fleet_ckpt"
fleet_err="$(mktemp)"
for _ in 1 2; do
    fleet_healed="$(target/release/relia fleet --samples 10000 --checkpoint "$fleet_ckpt" 2>"$fleet_err")"
    if [ "$fleet_first" != "$fleet_healed" ]; then
        echo "fleet: run resumed over a torn tail diverged from the first" >&2
        exit 1
    fi
done
grep -q "(0 executed," "$fleet_err" || {
    echo "fleet: torn checkpoint tail did not heal:" >&2
    cat "$fleet_err" >&2
    exit 1
}
# A checkpoint holding every other record interleaves resumed and fresh
# chunks in the engine's in-order fold; either worker count must still
# print the first run's bytes.
fleet_half="$(mktemp)"
awk '/^chunk / && ++n % 2 == 0 { next } { print }' "$fleet_ckpt" >"$fleet_half"
for workers in 1 3; do
    cp "$fleet_half" "$fleet_ckpt"
    fleet_interleaved="$(target/release/relia fleet --samples 10000 --workers "$workers" \
        --checkpoint "$fleet_ckpt" 2>"$fleet_err")"
    grep -q "(2 executed, 3 resumed)" "$fleet_err" || {
        echo "fleet: every-other-record checkpoint did not resume 3 of 5 chunks:" >&2
        cat "$fleet_err" >&2
        exit 1
    }
    if [ "$fleet_first" != "$fleet_interleaved" ]; then
        echo "fleet: run resumed over every other record diverged (--workers $workers)" >&2
        exit 1
    fi
done
rm -f "$fleet_ckpt" "$fleet_err" "$fleet_half"

echo "==> relia sweep (checkpoint resume over a torn tail and a corrupt middle record)"
# A small grid through the release CLI, then its checkpoint cut mid-record
# (a crash mid-append). The first resume keeps every intact record and
# re-runs the lost job, the second executes nothing, and both print the
# first run's bytes.
sweep_ckpt="$(mktemp -u)"
sweep_err="$(mktemp)"
run_sweep() {
    target/release/relia sweep builtin:c17 --ras 1:1,1:9 --tstandby 330,400 \
        --standby worst,best --jobs 2 --checkpoint "$sweep_ckpt" 2>"$sweep_err"
}
sweep_first="$(run_sweep)"
truncate -s -7 "$sweep_ckpt"
for _ in 1 2; do
    sweep_resumed="$(run_sweep)"
    if [ "$sweep_first" != "$sweep_resumed" ]; then
        echo "sweep: run resumed over a torn tail diverged from the first" >&2
        exit 1
    fi
done
grep -q "(0 executed," "$sweep_err" || {
    echo "sweep: torn checkpoint tail did not heal:" >&2
    cat "$sweep_err" >&2
    exit 1
}
# One corrupt record in the middle (bit rot) costs only its own job: the
# first resume keeps every intact record after it, the second executes
# nothing, and both print the first run's bytes.
sed -i '3s/"index":/"indeX":/' "$sweep_ckpt"
for executed in "(1 executed," "(0 executed,"; do
    sweep_resumed="$(run_sweep)"
    if [ "$sweep_first" != "$sweep_resumed" ]; then
        echo "sweep: run resumed over a corrupt middle record diverged from the first" >&2
        exit 1
    fi
    grep -q "$executed" "$sweep_err" || {
        echo "sweep: corrupt middle record: expected \"$executed\" in:" >&2
        cat "$sweep_err" >&2
        exit 1
    }
done
rm -f "$sweep_ckpt" "$sweep_err"

echo "==> relia sweep (four-circuit identity: worker count, pinned checkpoint)"
# ΔV_th, STA and the active-leakage column (which reads every
# characterized leakage-table entry of each used cell) end to end on
# release code: one and two workers print the same bytes, and the
# one-worker checkpoint matches the pinned sum. Update the sum only with a
# model or input-generator change (e.g. switching the synthetic circuits'
# RNG), never to absorb a refactor.
sweep_ckpt="$(mktemp -u)"
run_sweep4() {
    target/release/relia sweep builtin:c880 builtin:c1355 builtin:c1908 builtin:c2670 \
        --ras 1:5,1:9 --tstandby 330,400 --years 1,10 --standby worst,best "$@" 2>/dev/null
}
sweep_j1="$(run_sweep4 --jobs 1 --checkpoint "$sweep_ckpt")"
sweep_j2="$(run_sweep4 --jobs 2)"
if [ "$sweep_j1" != "$sweep_j2" ]; then
    echo "sweep: --jobs 1 and --jobs 2 printed different results" >&2
    exit 1
fi
sweep_sum="$(cksum <"$sweep_ckpt")"
[ "$sweep_sum" = "1380852501 16332" ] || {
    echo "sweep: four-circuit checkpoint cksum $sweep_sum, expected 1380852501 16332" >&2
    exit 1
}
rm -f "$sweep_ckpt"

echo "==> relia surface (build, probe gate, surface-tier loadgen, worker-count identity)"
# Build a small artifact through the release CLI (the builder refuses to
# write one whose measured sup-error exceeds the documented bound), gate
# an in-domain probe against exact evaluation, confirm the clamp report,
# then run the load generator against a self-hosted server with the
# surface mounted: interpolated bodies are checked within the bound and
# the hit/miss/fallback/clamp ledger must balance.
surface_rls="$(mktemp -u).rls"
target/release/relia surface build --out "$surface_rls" \
    --tstandby 320:400:9 --ras 0.1:0.9:9 --times 1e6:1e9:13
# (probe exits 1 itself if the interpolated answer misses the bound)
probe_in="$(target/release/relia surface probe "$surface_rls" --tstandby 335)"
printf '%s\n' "$probe_in" | grep -q "clamped: false" || {
    echo "surface: in-domain probe unexpectedly clamped" >&2
    exit 1
}
probe_out="$(target/release/relia surface probe "$surface_rls" --tstandby 310)"
printf '%s\n' "$probe_out" | grep -q "clamped: true" || {
    echo "surface: out-of-domain probe did not report the clamp" >&2
    exit 1
}
cargo run -q --offline --release -p relia-serve --example loadgen -- \
    --requests 1000 --threads 2 --surface "$surface_rls"
rm -f "$surface_rls"
# The paper-default grid (the one the benchmark's serve-warm mounts) must
# be byte-identical whatever the worker count.
surface_w1="$(mktemp -u).rls"
surface_w2="$(mktemp -u).rls"
target/release/relia surface build --workers 1 --out "$surface_w1"
target/release/relia surface build --workers 2 --out "$surface_w2"
cmp "$surface_w1" "$surface_w2" || {
    echo "surface: --workers 1 and --workers 2 builds differ" >&2
    exit 1
}
# ... and byte-identical to the artifact the scalar recursion built: the
# lane-parallel evaluation must not move a bit. Update the sum only with
# a model change.
surface_sum="$(cksum <"$surface_w2")"
[ "$surface_sum" = "2206792872 255740" ] || {
    echo "surface: paper-default artifact cksum $surface_sum, expected 2206792872 255740" >&2
    exit 1
}
rm -f "$surface_w1" "$surface_w2"

echo "==> bench_micro (speedup, cost and drift gates vs the committed BENCH_*.json)"
cargo run -q --offline --release -p relia-bench --bin bench_micro -- --check

echo "==> all checks passed"
