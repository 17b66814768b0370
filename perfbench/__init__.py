"""Seeded end-to-end and per-layer benchmark for pivotforge.

Run ``python3 perfbench/run.py --workload <walk|certify|linesearch>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root.
"""
