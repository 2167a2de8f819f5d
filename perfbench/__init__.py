"""Benchmark of the DANCE serving stack: three workloads, end-to-end and per layer.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root (see ``BENCHMARK.json``).
"""
