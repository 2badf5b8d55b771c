"""Repository benchmark: verdict-checked workloads over prove, mc and
campaign, with a separate traced run for the per-layer breakdown.

Entry point: ``python3 perfbench/run.py`` (see ``run.py``).
"""
