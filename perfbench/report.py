"""By-layer report of one benchmark trace, or a by-layer diff of two.

    python3 perfbench/report.py perfbench/.work/traces/multihop-gilbert-seed1.json
    python3 perfbench/report.py BEFORE.json AFTER.json

A trace is the file ``perfbench/run.py --trace 1`` writes.  A layer's time is
the self time of its spans (a span's duration minus its children's), so the
layers and the unattributed remainder add up to the traced pass's wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional


def load(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())


def layer_times(trace: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """``{layer: {metric: seconds}}`` over the trace's layer self-time metrics."""

    metrics = trace["metrics"]
    layers: Dict[str, Dict[str, float]] = {}
    for name in trace["layer_time_metrics"]:
        layers.setdefault(name.split(".")[0], {})[name] = metrics[name]
    layers["unattributed"] = {"trace.unattributed_s": metrics["trace.unattributed_s"]}
    return layers


def header(trace: Dict[str, Any]) -> str:
    env = trace["env"]
    sha = env.get("git_sha") or f"src {str(env.get('source_sha256'))[:12]}"
    return (
        f"{env['workload']} seed {env['seed']} ({sha}; python {env['python']}, "
        f"numpy {env['numpy']}, nproc {env['nproc']})"
    )


def report(trace: Dict[str, Any]) -> str:
    metrics = trace["metrics"]
    wall = metrics["trace.wall_s"]
    lines = [header(trace), f"{'layer / metric':34} {'self s':>10} {'share':>7}"]
    for layer, times in layer_times(trace).items():
        total = sum(times.values())
        if not total:
            continue
        lines.append(f"{layer:34} {total:10.4f} {total / wall:7.1%}")
        if len(times) > 1:
            lines.extend(f"  {name:32} {value:10.4f}" for name, value in times.items() if value)
    lines.append(f"{'wall (traced pass)':34} {wall:10.4f}")
    units = trace["units"]
    timed = {"trace.wall_s", "trace.unattributed_s", *trace["layer_time_metrics"]}
    others = [name for name in units if name not in timed and metrics.get(name)]
    if others:
        lines.append("other metrics:")
        lines.extend(f"  {name:32} {metrics[name]:14.6g} {units[name]}" for name in others)
    return "\n".join(lines)


def diff(before: Dict[str, Any], after: Dict[str, Any]) -> str:
    a, b = layer_times(before), layer_times(after)
    lines = [
        f"before: {header(before)}",
        f"after:  {header(after)}",
        f"{'layer':34} {'before s':>10} {'after s':>10} {'delta s':>10} {'ratio':>7}",
    ]
    for layer in list(a) + [name for name in b if name not in a]:
        x, y = sum(a.get(layer, {}).values()), sum(b.get(layer, {}).values())
        ratio = f"{y / x:7.3f}" if x else f"{'-':>7}"
        lines.append(f"{layer:34} {x:10.4f} {y:10.4f} {y - x:+10.4f} {ratio}")
    x, y = before["metrics"]["trace.wall_s"], after["metrics"]["trace.wall_s"]
    lines.append(f"{'wall (traced pass)':34} {x:10.4f} {y:10.4f} {y - x:+10.4f}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("traces", type=Path, nargs="+", help="one trace, or two to diff")
    args = parser.parse_args(argv)
    if len(args.traces) > 2:
        parser.error("give one trace to report or two to diff")
    traces = [load(path) for path in args.traces]
    print(report(traces[0]) if len(traces) == 1 else diff(*traces))
    return 0


if __name__ == "__main__":
    sys.exit(main())
