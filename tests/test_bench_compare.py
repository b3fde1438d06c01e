"""tools/bench_compare.py: the benchmark trajectory printer and its gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.25},
]


def pair(parent_wall, change_wall, change_failed=0, rss=100.0):
    side = {"setup_s": 0.3, "peak_rss_mib": rss, "attempted": 4}
    return {
        "parent": dict(side, wall_s=parent_wall, failed=0),
        "change": dict(side, wall_s=change_wall, failed=change_failed),
    }


def write_bench(directory, pr, pairs_by_workload):
    doc = {"pr": pr, "end_to_end": {w: {"pairs": p} for w, p in pairs_by_workload.items()}}
    (directory / f"BENCH_{pr}.json").write_text(json.dumps(doc))


@pytest.fixture()
def bench(tmp_path):
    directory = tmp_path / "bench"
    directory.mkdir()
    return directory


def gate_newest(bench):
    return bench_compare.gate(bench_compare.bench_files(bench)[-1][1], METRICS)


class TestBenchCompare:
    def test_files_are_read_in_pr_order(self, bench):
        for pr in (9, 15, 100):
            write_bench(bench, pr, {"w": [pair(1.0, 1.0)]})
        assert [pr for pr, _ in bench_compare.bench_files(bench)] == [9, 15, 100]

    def test_trajectory_reports_medians_of_raw_pairs(self, bench):
        write_bench(bench, 15, {"w": [pair(1.0, 0.5), pair(3.0, 0.7), pair(2.0, 9.0)]})
        lines = bench_compare.trajectory(bench_compare.bench_files(bench), METRICS)
        assert lines[0] == "w"
        assert "wall_s 2 -> 0.7 (-65.0%)" in lines[1]

    def test_gate_passes_within_the_bound(self, bench):
        write_bench(bench, 15, {"w": [pair(1.0, 2.0)]})  # an old regression is not gated
        write_bench(bench, 16, {"w": [pair(1.0, 1.2), pair(1.0, 1.24)]})
        assert gate_newest(bench) == []

    def test_gate_fails_beyond_the_bound(self, bench):
        write_bench(bench, 16, {"w": [pair(1.0, 1.3), pair(1.0, 1.26)]})
        problems = gate_newest(bench)
        assert len(problems) == 1 and problems[0].startswith("w: wall_s")

    def test_gate_fails_on_more_failed_operations(self, bench):
        write_bench(bench, 16, {"w": [pair(1.0, 0.5, change_failed=1)]})
        assert gate_newest(bench) == ["w: a larger share of operations failed"]

    def test_annotated_extra_runs_are_not_gated(self, bench):
        write_bench(bench, 16, {"w": [pair(1.0, 1.0)], "w (first run)": [pair(1.0, 5.0)]})
        assert gate_newest(bench) == []

    def test_main_exits_nonzero_only_when_gating_a_broken_bound(
        self, tmp_path, bench, monkeypatch, capsys
    ):
        benchmark = tmp_path / "BENCHMARK.json"
        benchmark.write_text(json.dumps({"end_to_end": METRICS}))
        monkeypatch.setattr(bench_compare, "BENCHMARK", benchmark)
        monkeypatch.setattr(bench_compare, "BENCH_DIR", bench)
        write_bench(bench, 16, {"w": [pair(1.0, 1.3)]})
        assert bench_compare.main([]) == 0  # printing alone never fails
        assert bench_compare.main(["--gate"]) == 1
        assert "gate BENCH_16.json: FAILED" in capsys.readouterr().out
