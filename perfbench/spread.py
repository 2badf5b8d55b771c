"""Run-to-run spread of the benchmark, the way its acceptance check sees it.

    python3 perfbench/spread.py --workloads mc_matrix --seeds 1-5 --seconds 15

Runs ``run.py`` once per (workload, seed) in a fresh process, in series,
and prints per end-to-end metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), and the spread
``(q3 - q1) / median`` beside its bound from ``BENCHMARK.json``; a
spread at or above a third of its bound is marked ``WIDE``.  It also
records each run's wall and CPU time and checks that repeated runs of
one seed (``--repeat 2``) print the same digest.  Every run's result is
written to ``.perfbench/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    digest = next(line.split("sha256:")[1] for line in lines
                  if "digest sha256:" in line)
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime
                  - before.ru_utime - before.ru_stime),
        "digest": digest,
        "result": json.loads(lines[-1]),
    }


def summarise(runs, bounds) -> bool:
    """Print the spread table; True when every spread is within a third
    of its bound (``setup_s`` exempt, as in the acceptance check)."""
    steady = True
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        walls = [run["wall_s"] for run in mine]
        cpus = [run["cpu_s"] for run in mine]
        failed = [run["result"]["failed"] for run in mine]
        print(f"== {workload}: {len(mine)} runs, wall median "
              f"{statistics.median(walls):.1f} s, cpu median "
              f"{statistics.median(cpus):.1f} s, failed {failed}, "
              f"correct {all(run['result']['correct'] for run in mine)}")
        for metric, bound in bounds.items():
            values = [run["result"]["metrics"][metric]["value"]
                      for run in mine]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            wide = spread >= bound / 3 and metric != "setup_s"
            steady = steady and not wide
            print(f"  {metric:<12} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f}  bound {bound:.2f}"
                  f"{'  WIDE' if wide else ''}")
        digests = {}
        for run in mine:
            digests.setdefault(run["seed"], set()).add(run["digest"])
        unstable = [seed for seed, seen in digests.items() if len(seen) > 1]
        if unstable:
            steady = False
            print(f"  digest differs across runs of seeds {unstable}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            for _ in range(args.repeat):
                run = run_once(workload, seed, seconds)
                print(f"{workload} seed {seed}: {run['wall_s']:.1f} s wall, "
                      f"failed {run['result']['failed']}", flush=True)
                runs.append(run)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "spread.json"), "w",
              encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
    return 0 if summarise(runs, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
