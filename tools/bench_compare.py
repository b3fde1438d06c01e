"""Print the benchmark trajectory recorded in ``docs/bench/BENCH_*.json``.

    python3 tools/bench_compare.py            # every file, in PR order
    python3 tools/bench_compare.py --gate     # also check the newest file

Each ``BENCH_<pr>.json`` holds one change's raw alternating parent/change
pairs per workload (``end_to_end.<workload>.pairs``).  For every workload
and every end-to-end metric of ``BENCHMARK.json`` (``wall_s``, ``setup_s``,
``peak_rss_mib``) the tool prints, per file, the parent and change medians
of the raw pairs and the change's relative delta.  An entry named
``<workload> (<note>)`` is an extra run of ``<workload>``; it is listed but
never gated.

``--gate`` exits 1 when, in the newest file, a workload's change median is
worse than its parent median by more than the metric's ``bound`` in
``BENCHMARK.json`` (a relative bound: 0.25 allows 25%), or when a larger
share of the change's operations failed than of the parent's.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "docs" / "bench"
BENCHMARK = ROOT / "BENCHMARK.json"
BENCH_NAME = re.compile(r"BENCH_(\d+)\.json$")


def bench_files(directory: Path) -> List[Tuple[int, Path]]:
    """``(pr, path)`` of every ``BENCH_<pr>.json`` in ``directory``, in PR order."""

    found = []
    for path in directory.glob("BENCH_*.json"):
        match = BENCH_NAME.search(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def medians(pairs: Sequence[Dict[str, Any]], side: str, metric: str) -> Optional[float]:
    values = [pair[side][metric] for pair in pairs if metric in pair.get(side, {})]
    return statistics.median(values) if values else None


def failed_share(pairs: Sequence[Dict[str, Any]], side: str) -> float:
    failed = sum(pair[side].get("failed", 0) for pair in pairs)
    attempted = sum(pair[side].get("attempted", 0) for pair in pairs)
    return failed / attempted if attempted else 0.0


def relative(parent: float, change: float) -> float:
    return (change - parent) / parent if parent else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, relative (negative: better)."""

    delta = relative(parent, change)
    return delta if better == "lower" else -delta


def trajectory(files: List[Tuple[int, Path]], metrics: List[Dict[str, Any]]) -> List[str]:
    """The printable table: one block per workload, one row per file."""

    rows: Dict[str, List[str]] = {}
    for pr, path in files:
        doc = json.loads(path.read_text())
        for entry, data in doc.get("end_to_end", {}).items():
            pairs = data.get("pairs", [])
            cells = []
            for metric in metrics:
                name = metric["name"]
                parent, change = medians(pairs, "parent", name), medians(pairs, "change", name)
                if parent is None or change is None:
                    cells.append(f"{name} -")
                    continue
                cells.append(
                    f"{name} {parent:.4g} -> {change:.4g} ({relative(parent, change):+.1%})"
                )
            rows.setdefault(entry, []).append(f"  PR {pr:<3} n={len(pairs):<2} " + "  ".join(cells))
    lines = []
    for entry in sorted(rows):
        lines.append(entry)
        lines.extend(rows[entry])
    return lines


def gate(path: Path, metrics: List[Dict[str, Any]]) -> List[str]:
    """Every bound the file's change breaks (empty when it passes)."""

    doc = json.loads(path.read_text())
    problems = []
    for workload, data in doc.get("end_to_end", {}).items():
        if " (" in workload:
            continue
        pairs = data.get("pairs", [])
        if not pairs:
            problems.append(f"{workload}: no pairs")
            continue
        for metric in metrics:
            name, bound = metric["name"], metric.get("bound")
            parent, change = medians(pairs, "parent", name), medians(pairs, "change", name)
            if bound is None or parent is None or change is None:
                continue
            worse = worse_by(parent, change, metric.get("better", "lower"))
            if worse > bound:
                problems.append(
                    f"{workload}: {name} median {parent:.4g} -> {change:.4g} "
                    f"is {worse:.1%} worse (bound {bound:.0%})"
                )
        if failed_share(pairs, "change") > failed_share(pairs, "parent"):
            problems.append(f"{workload}: a larger share of operations failed")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--gate", action="store_true", help="exit 1 if the newest file breaks a bound"
    )
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    files = bench_files(BENCH_DIR)
    if not files:
        print(f"no BENCH_*.json in {BENCH_DIR}", file=sys.stderr)
        return 1
    print("\n".join(trajectory(files, metrics)))
    if not args.gate:
        return 0
    newest = files[-1][1]
    problems = gate(newest, metrics)
    for problem in problems:
        print(f"GATE {newest.name}: {problem}", file=sys.stderr)
    print(f"gate {newest.name}: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
