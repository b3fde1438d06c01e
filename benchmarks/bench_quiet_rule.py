"""Benchmark E13 — quiet-rule ablation (termination policies on sparse graphs).

The acceptance checks guard both quiet-rule misfire directions at once:
sub-threshold cost must stay within 2× of the uniform retry-cap reference
(and far below the paper rule's run-to-the-cap blowup), while near-threshold
delivery-vs-reachable must stay ≈ 1 — which the uniform cap destroys.
"""

from __future__ import annotations

import math

from conftest import bench_settings, run_and_report


def test_e13_quiet_rule_ablation(benchmark):
    result = run_and_report(benchmark, "E13")
    summaries = result.summaries

    # Direction 2 (sub-threshold blowup): no retry cap configured, yet the
    # degree-aware default lands within 2x of the constant-R reference and
    # multiples below the paper rule.
    assert summaries["sub_cost_degree_vs_constant"] <= 2.0
    assert summaries["sub_cost_paper_vs_degree"] >= 4.0

    # Direction 1 (near-threshold early give-up): delivery-vs-reachable stays
    # high under the degree-aware rule, not measurably below the uniform cap,
    # and within a hair of the paper rule wherever the paper rule does not dip
    # itself.  Pipelined relay rounds closed the constant rule's old
    # near-threshold deficit (delivery now needs far fewer request phases,
    # so a uniform budget rarely binds before the frontier arrives): at
    # n = 96-256 the two rules are at parity in expectation, and a paired
    # draw in which the degree rule strands one fringe node (the
    # locally-undecidable class) and the cap strands none is common, so
    # strict dominance of a few-trial mean is a coin flip.  The gate is
    # non-inferiority instead: the same 0.03 hair as the paper-rule check
    # for one trial, shrinking with the square root of the trial count as
    # the mean's sampling noise does.  Plain-degree (hops=1) default budgets,
    # for one, still fail it: 0.966 at n = 96 and 0.949 at n = 256, against
    # 1.000 for the cap.
    tolerance = 0.03 / math.sqrt(bench_settings().trials)
    assert summaries["near_dvr_degree"] >= 0.85
    assert summaries["near_dvr_degree"] >= summaries["near_dvr_constant"] - tolerance
    assert summaries["near_dvr_degree"] >= summaries["near_dvr_paper"] - 0.03

    # Sub-threshold reachable nodes (Alice's own small components) are never
    # starved: the source-neighbourhood protection keeps them patient.
    sub_degree = [
        row
        for row in result.rows
        if row["scenario"].startswith("sub") and "default" in row["rule"]
    ]
    assert sub_degree and all(row["delivery_vs_reachable"] >= 0.99 for row in sub_degree)
