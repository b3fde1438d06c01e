#!/usr/bin/env bash
# Tier-1 verification: the full unit/property/integration suite, the
# repro-lint determinism gate (plus mypy when installed), a quick-mode
# benchmark smoke over a representative experiment subset (delivery, the
# E9 jamming-strategy ablation and E10 spoofing attacks, which gate the
# burst and spoof paths, multi-hop, quiet rule), the sparse-topology and
# mobile-jammer benchmark smokes, the docs code-snippet smoke
# (README / docs quickstarts must stay runnable), traced perfbench runs of
# the single-hop attack, multi-hop and million-device single-hop workloads,
# and the benchmark-trajectory gate over docs/bench/BENCH_*.json.
#
# Usage:
#   tools/run_checks.sh            # tests + benchmark smoke + docs snippets + perfbench smokes + gate
#   tools/run_checks.sh --no-bench # tests + docs snippets + perfbench smokes + gate
#
# Every step runs even if an earlier one fails; the script exits non-zero if
# ANY step failed, and lists the failures at the end — so CI cannot "pass"
# on the strength of the first step alone.
#
# Environment knobs (forwarded to benchmarks/conftest.py):
#   REPRO_BENCH_N       network size for the smoke benchmarks (default 96 here)
#   REPRO_BENCH_TRIALS  trials per sweep point (default 1 here)

set -uo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=()

run_step() {
    local name="$1"
    shift
    echo "== ${name} =="
    if "$@"; then
        echo "-- ${name}: ok"
    else
        local status=$?
        echo "-- ${name}: FAILED (exit ${status})" >&2
        failures+=("${name}")
    fi
}

# One repo-benchmark workload, traced: perfbench runs the batch untraced and
# then traced and counts any case whose outcomes differ as a failed
# operation, so this gates traced ≡ untraced on the workload's paths.
perfbench_smoke() {
    python3 perfbench/run.py --workload "$1" --seed 1 --seconds 0 --trace 1 \
        | tail -n 1 \
        | python3 -c 'import json, sys; r = json.load(sys.stdin); print(r["failed"], "of", r["attempted"], "failed"); sys.exit(r["failed"] != 0)'
}

# The test suite must behave identically everywhere, so the runner's env
# knobs (REPRO_JOBS / REPRO_CACHE_DIR / REPRO_TRIAL_* — which CI sets for the
# benchmark smokes below) are stripped here: tests choose jobs/cache/fault
# policy explicitly.
run_step "tier-1 test suite" env -u REPRO_JOBS -u REPRO_CACHE_DIR \
    -u REPRO_TRIAL_TIMEOUT_S -u REPRO_TRIAL_RETRIES -u REPRO_STRICT_FAULTS \
    python -m pytest -x -q

# The determinism & invariant linter (repro.lint) gates the whole library
# tree: zero unsuppressed violations, every suppression with a reason.
run_step "repro-lint (determinism & invariant linter)" \
    python tools/repro_lint.py src/repro

# mypy is a CI-installed dev dependency; locally it may be absent (this repo
# pins no dev venv), so the step gates on availability rather than failing
# a machine that cannot install it.
if python -c "import mypy" >/dev/null 2>&1; then
    run_step "mypy (strict-ish typing gate, config in setup.cfg)" \
        python -m mypy --config-file setup.cfg
else
    echo "== mypy (strict-ish typing gate) =="
    echo "-- mypy: SKIPPED (mypy not installed; CI runs it in the lint job)"
fi

if [[ "${1:-}" != "--no-bench" ]]; then
    REPRO_BENCH_N="${REPRO_BENCH_N:-96}" REPRO_BENCH_TRIALS="${REPRO_BENCH_TRIALS:-1}" \
        run_step "quick-mode benchmark smoke (E2 delivery + E9 adversary ablation + E10 spoofing + E11 multihop + E13 quiet rule)" \
        python -m pytest benchmarks/bench_delivery.py benchmarks/bench_adversary_ablation.py \
        benchmarks/bench_spoofing.py benchmarks/bench_multihop.py benchmarks/bench_quiet_rule.py \
        --benchmark-only --benchmark-disable-gc -q

    run_step "sparse-topology benchmark smoke (CSR build sweep + 1 GiB footprint gate)" \
        python benchmarks/bench_sparse_topology.py --quick --engine-n 2000

    run_step "mobile-jammer benchmark smoke" python benchmarks/bench_mobile_jammer.py --smoke

    run_step "parallel-harness benchmark smoke (jobs fan-out + trial cache)" \
        python benchmarks/bench_parallel_harness.py --smoke

    run_step "million-device pipelined benchmark smoke" \
        python benchmarks/bench_million_device.py --smoke

    REPRO_BENCH_N="${REPRO_BENCH_N:-96}" REPRO_BENCH_TRIALS="${REPRO_BENCH_TRIALS:-1}" \
        run_step "tournament benchmark smoke (E14 grid + parallel identity + worst-case search)" \
        python benchmarks/bench_tournament.py --smoke --jobs 2

    run_step "trace-overhead benchmark smoke (null-recorder neutrality)" \
        python benchmarks/bench_trace_overhead.py --smoke

    run_step "fault-tolerance benchmark smoke (chaos-injected sweep bit-identity)" \
        python benchmarks/bench_fault_tolerance.py --smoke
fi

run_step "docs code snippets" python tools/run_doc_snippets.py README.md docs/architecture.md

run_step "perfbench single-hop attack smoke (blocking, spoofing, bursty, random; traced ≡ untraced, 0 failed)" \
    perfbench_smoke singlehop-attack

run_step "perfbench multi-hop smoke (traced ≡ untraced, 0 failed)" \
    perfbench_smoke multihop-gilbert

run_step "perfbench single-hop 10⁶-device smoke (traced ≡ untraced, 0 failed)" \
    perfbench_smoke million-build

run_step "benchmark trajectory gate (newest docs/bench/BENCH_*.json within BENCHMARK.json bounds)" \
    python3 tools/bench_compare.py --gate

if ((${#failures[@]})); then
    echo
    echo "FAILED steps: ${failures[*]}" >&2
    exit 1
fi
echo "all checks passed"
