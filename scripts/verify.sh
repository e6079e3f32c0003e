#!/usr/bin/env bash
# Tier-1 verification gate: the whole workspace must build, test, and
# compile its benches fully offline (the workspace has zero external
# dependencies by design — see README "Building").
set -euo pipefail
cd "$(dirname "$0")/.."

RUSTFLAGS="-D warnings" cargo build --release --offline
cargo test -q --offline
cargo bench --no-run --offline

# Rustdoc gate: every intra-doc link must resolve and every doc comment
# must be well-formed HTML. `revere-e2e` is excluded: its three
# private-link warnings live under `crates/e2e/`, which only a
# `benchmark` issue may edit.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --exclude revere-e2e

# Chaos gate: the fault-injection suite must hold under several fixed
# seeds (its assertions are seed-independent invariants — determinism,
# reported gaps, exactly-once application). Override the seed set with
# REVERE_CHAOS_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_CHAOS_SEEDS:-7 42 1003}; do
    echo "chaos gate: seed $seed"
    REVERE_CHAOS_SEED="$seed" cargo test -q --offline -p revere --test chaos_pdms
done

# Differential gate: the planned evaluator must agree with the naive
# oracle (answers and errors) and every rewriting layer must stay
# containment-sound, under several fixed seeds. Override the seed set
# with REVERE_DIFF_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_DIFF_SEEDS:-1 2 3}; do
    echo "differential gate: seed $seed"
    REVERE_DIFF_SEED="$seed" cargo test -q --offline -p revere --test differential_query
done

# Observability gate: a fixed seed must produce a byte-identical Chrome
# trace across runs, and tracing must never change answers. Held under
# several seeds; override with REVERE_TRACE_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_TRACE_SEEDS:-1003 7 42}; do
    echo "trace gate: seed $seed"
    REVERE_TRACE_SEED="$seed" cargo test -q --offline -p revere --test trace_obs
done

# Purity gate: reformulation is a function of the query and the mapping
# graph — the same query reformulated twice, once on another thread,
# spells every disjunct the same way — and the benchmark overlays'
# reformulations (every disjunct's canonical key and every search counter)
# equal the golden file `tests/golden/reformulation.txt`.
echo "purity gate: reformulation_golden"
cargo test -q --offline -p revere --test reformulation_golden

# Crash-recovery gate: the durability suite must hold under several
# fixed seeds — WAL round-trips, torn-tail recovery, ack-driven log
# truncation, inbox compaction, and the crash-convergence invariant (a
# run with mid-stream peer crashes converges byte-identically to its
# crash-free twin, every gram applied exactly once). Override the seed
# set with REVERE_CRASH_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_CRASH_SEEDS:-7 42 1003}; do
    echo "crash-recovery gate: seed $seed"
    REVERE_CRASH_SEED="$seed" cargo test -q --offline -p revere --test durability_wal
done

# IVM differential gate: after every updategram in a seeded adversarial
# stream (duplicate inserts, multi-copy deletes, absent deletes, bulk
# dataset joins/leaves), a view that always pushes the delta through its
# circuits and a view driven by `maintain`'s policy (the cost model's own
# choice per gram, plus a forced re-seed every fifth) must both equal a
# from-scratch recompute of their defining query, byte for byte; the
# seeding arm: a circuit seeded by `init_full` (one pass over the
# catalog) must equal its twin seeded by pushing the whole catalog as one
# batch of inserts (derivation counts, work, arranged tuples, pushes),
# before and after a few random grams, over mixed `Int`/`Float` bags; and
# subscriptions over a durable and an in-memory peer, under publishes,
# direct writes, checkpoints, restarts, a mapping added mid-stream, a
# peer leaving and rejoining and a storage swap, must equal a one-shot
# query after every step (changes the catalogs record, re-seeds on a
# topology change). Override the seed set with
# REVERE_IVM_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_IVM_SEEDS:-7 42 1003}; do
    echo "ivm differential gate: seed $seed"
    REVERE_IVM_SEED="$seed" cargo test -q --offline -p revere --test differential_ivm
done

# Vectorized differential gate: the columnar engine must agree with the
# naive oracle (answers after canonical sort, error messages), its step
# profiles and the bindings-only kernel with the profile oracle derived
# from that evaluator, under several fixed seeds. Override the seed set with
# REVERE_VEC_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_VEC_SEEDS:-1 2 3}; do
    echo "vectorized differential gate: seed $seed"
    REVERE_VEC_SEED="$seed" cargo test -q --offline -p revere --test differential_vec
done

# Cache differential gate: one random schedule over everything that can
# change a cached reformulation's or a cached plan's inputs (publishes,
# direct writes and deletes, new mappings, peers leaving and rejoining with
# different data, crash-restarts, weather, estimator feedback) applied to
# a caching and a non-caching network, which must agree on answers and
# completeness after every step. Override the seed set with
# REVERE_CACHE_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_CACHE_SEEDS:-7 42 1003 1 2}; do
    echo "cache differential gate: seed $seed"
    REVERE_CACHE_SEED="$seed" cargo test -q --offline -p revere --test differential_cache
done

# Ingestion gate: random schedules of insert / republish / retract /
# compact against a `Vec<Triple>` model — every read equals the model's
# filter in publish order, every index holds exactly the live triples and
# the slab never outgrows the peak live count, compacted or not — fifty
# revision rounds of a generated site must render, in all three
# applications, what a store built fresh from the final pages renders,
# and every application and generated summary, under every cleaning
# policy and through republish / retract / compact churn over mixed
# `Int`/`Float`/`Str` spellings, must render what a per-cell
# `clean::resolve` oracle builds, spelling for spelling.
# Override the seed set with REVERE_TRIPLES_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_TRIPLES_SEEDS:-7 42 1003}; do
    echo "ingestion gate: seed $seed"
    REVERE_TRIPLES_SEED="$seed" cargo test -q --offline -p revere --test property_tests triple_store
done

# E4 + E5 smokes: the MANGROVE experiments must run end to end (publish
# vs crawl staleness; the cleaning policies under dirt).
cargo run --release --offline -p revere-bench --bin report E4
cargo run --release --offline -p revere-bench --bin report E5

# E8 smoke: the maintenance experiment must run end to end — its
# recompute column re-seeds a view, and every row asserts the pushed and
# the re-seeded view agree.
cargo run --release --offline -p revere-bench --bin report E8

# E16 smoke: the durability experiment must run end to end — its sweep
# asserts byte-identical convergence and suffix-bounded recovery for
# every built-in crash seed, and reports recovery latency and
# stable-storage amplification.
cargo run --release --offline -p revere-bench --bin report E16

# E13 smoke: the plan/reformulation cache sweep must run end to end and
# report a table (its internal asserts cross-check cached vs uncached
# answers).
cargo run --release --offline -p revere-bench --bin report E13

# E14 smoke: the observability experiment must run end to end — its
# sweep asserts the traced run returns exactly the untraced answers.
cargo run --release --offline -p revere-bench --bin report E14

# E15 gate: the adaptive-statistics experiment asserts in-process that
# post-feedback p90 q-error at every step depth >= 2 stays within the
# checked-in threshold, on both its workloads — running the report IS
# the calibration regression gate. Override the seed with
# REVERE_E15_SEED=... and the threshold with REVERE_E15_MAX_P90=...
echo "calibration gate: seed ${REVERE_E15_SEED:-1013}, max p90 ${REVERE_E15_MAX_P90:-4.0}"
cargo run --release --offline -p revere-bench --bin report E15

# E17 smoke: the delta-dataflow experiment must run end to end — E17a
# asserts the circuit's per-update work stays flat across a 64× base-size
# sweep and that its output matches recompute; E17b cross-checks
# dataflow subscriptions against invalidate-and-recompute under fan-out.
cargo run --release --offline -p revere-bench --bin report E17

# Views smoke: the example asserts the cost model's choices (incremental
# for a small gram, recompute for a bulk load), that a placed view serves
# its query at zero messages, and that it still equals the live network
# answer after a publish two peers away.
cargo run --release --offline -p revere --example views_and_updates

# Monitor gate: the health-monitor suite must hold under several fixed
# seeds — exact fault attribution within the detection bound, answer
# invariance under scraping (twin runs byte-identical), and
# byte-deterministic dashboards/event logs/rollups. Override the seed set with
# REVERE_E19_SEEDS="1 2 3" scripts/verify.sh
for seed in ${REVERE_E19_SEEDS:-1003 7 42}; do
    echo "monitor gate: seed $seed"
    REVERE_E19_SEED="$seed" cargo test -q --offline -p revere --test monitor_health
done

# E19 gate: the telemetry experiment asserts in-process that the monitor's
# flagged set equals the injected degraded-peer set (zero misses, zero
# false positives), that every detection lands within
# REVERE_E19_MAX_DETECT_TICKS (default 8), and that full tracing
# (Obs::enabled, every span kept) costs at most
# REVERE_E19_MAX_OVERHEAD_PCT (default 50%) over Obs::disabled() —
# running the report IS the gate, like E15. That overhead is a min-of-3
# wall-clock reading below its own run-to-run noise, so the gate can
# pass on noise (ROADMAP 17(c)).
echo "telemetry gate: seed ${REVERE_E19_SEED:-1003}, max detect ${REVERE_E19_MAX_DETECT_TICKS:-8} ticks, max overhead ${REVERE_E19_MAX_OVERHEAD_PCT:-50}%"
cargo run --release --offline -p revere-bench --bin report E19

# End-to-end smoke: two seconds of each workload through the benchmark's
# front door, traced. `e2e` exits non-zero if any operation failed or
# disagreed with its reference, or if the traced pass does not reconcile
# (an `unattributed_ratio` above 0.30) — only the traced pass checks
# that, and `storage::Relation` sits under the write and ingestion paths
# as much as under the query path.
for workload in query_churn query_warm update_fanout ingest_site; do
    echo "e2e smoke: $workload"
    cargo run --release --offline -p revere-e2e --bin e2e -- \
        --workload "$workload" --seed 1013 --seconds 2 --trace 1 >/dev/null
done
echo "verify: OK"
