"""Run one benchmark workload; the last line of stdout is its JSON result.

    python3 perfbench/run.py --workload singlehop-attack --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the simulator is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the batch untraced and then traced, checks that both give
the same outcomes, reports the per-layer metrics, and writes the spans to
``perfbench/.work/traces/`` (see ``perfbench/report.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import perfbench.workloads; print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""

    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the simulator's Python sources, for checkouts without git."""

    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def peak_rss_mib() -> float:
    """Largest resident set of this process or any worker it waited for."""

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def import_seconds(in_process: float) -> float:
    """Median import time: this process's, and fresh interpreters' for the rest."""

    samples = [in_process]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def timed_setup(build: Callable[[], object]) -> Tuple[object, float]:
    """Build the set-up several times; return the last build and the median time."""

    times: List[float] = []
    built: object = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    return built, statistics.median(times)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as wl

    imported = time.perf_counter() - _STARTED
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; not in {wl.WORKLOADS}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    try:
        if args.workload == wl.SWEEP_WORKLOAD:

            def build() -> "wl.ExperimentSettings":
                store = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
                return wl.sweep_settings(args.seed, store)

            settings, setup_s = timed_setup(build)
            if args.trace:
                measurement, tracer = wl.trace_sweep(scratch, settings)
            else:
                measurement = wl.measure_sweep(build, settings, args.seconds)
        else:
            cases = wl.PROTOCOL_WORKLOADS[args.workload]
            prepared, setup_s = timed_setup(lambda: wl.prepare(cases, args.seed))
            if args.trace:
                measurement, tracer = wl.trace_protocol(cases, args.seed, prepared)
            else:
                measurement = wl.measure_protocol(cases, args.seed, args.seconds, prepared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(args.workload, args.seed, bool(args.trace))
    if args.trace:
        units = wl.per_layer_units()
        out = WORKDIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(wl.trace_document(env, measurement.metrics, tracer)))
    else:
        units = END_TO_END_UNITS
        measurement.metrics.update(
            setup_s=import_seconds(imported) + setup_s, peak_rss_mib=peak_rss_mib()
        )
    for failure in measurement.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(env))
    result = {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": measurement.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
