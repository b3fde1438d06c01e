"""The repository benchmark: fixed workloads timed from outside the simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (see :mod:`perfbench.workloads`), checks its outputs, and
prints one JSON result line.  ``--trace 1`` re-runs the batch with span
instrumentation (:mod:`perfbench.tracing`) and reports the per-layer split;
``python3 perfbench/report.py`` reads the trace files it writes.
"""
