#!/usr/bin/env bash
# Tier-1 verification: the full unit/property/integration suite, the
# repro-lint determinism gate (plus mypy when installed), a quick-mode
# benchmark smoke over a representative experiment subset, the sparse-topology
# and mobile-jammer benchmark smokes, and the docs code-snippet smoke
# (README / docs quickstarts must stay runnable).
#
# Usage:
#   tools/run_checks.sh            # tests + benchmark smoke + docs snippets
#   tools/run_checks.sh --no-bench # tests + docs snippets (fast pre-commit check)
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
        run_step "quick-mode benchmark smoke (E2 delivery + E11 multihop + E13 quiet rule)" \
        python -m pytest benchmarks/bench_delivery.py benchmarks/bench_multihop.py \
        benchmarks/bench_quiet_rule.py \
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

if ((${#failures[@]})); then
    echo
    echo "FAILED steps: ${failures[*]}" >&2
    exit 1
fi
echo "all checks passed"
