"""Steadiness check: how much each end-to-end metric moves between runs.

    python3 runbench/steady.py --workload lossy-ckpt --seeds 1-10 --seconds 20

runs ``runbench/run.py`` once per seed, one fresh process after another,
and prints each end-to-end metric's median, quartiles and spread (the
distance between the first and third quartile as a share of the median,
from ``statistics.quantiles(values, n=4)``).  A metric whose spread is not
below a third of its bound in ``BENCHMARK.json`` is flagged with the most
likely cause.  ``--repeat-seed`` runs one seed every time instead, which
separates host noise from the spread the seed's inputs bring.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: metrics that are exact counts of the simulated run: from one seed to the
#: next they move only with the inputs, never with the host
EXACT_COUNTS = ("sim_steps_per_solve", "messages_per_solve")


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"1,4,9"``."""
    if "-" in text.strip("-"):
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def cause(name: str, values: Sequence[float], repeat_seed: bool) -> str:
    """The likeliest reason a metric does not settle."""
    if name == "setup_s":
        short = " sub-second," if statistics.median(values) < 1.0 else ""
        return (f"set-up time is{short} one-off work (imports, input generation, "
                "one warm-up solve) on a drifting host; its spread is not gated")
    if name in EXACT_COUNTS:
        if repeat_seed:
            return "an exact count moved on one seed: the program is nondeterministic"
        return "exact count: it moves only with the seed's inputs; add instances per round"
    if name.startswith("solve_p"):
        return "a percentile over few solves; add solves per round"
    return ("host time: input mix and host drift; add work per round "
            "(compare --repeat-seed to split the two)")


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  seed {seed}: correct={result['correct']} failed={result['failed']}"
              f" of {result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeat-seed", type=int, default=None,
                        help="run this one seed as many times as --seeds names")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = args.seconds or config["run_seconds"]
    seeds = parse_seeds(args.seeds)
    if args.repeat_seed is not None:
        seeds = [args.repeat_seed] * len(seeds)
    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, seconds))
        print(f"  seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
              flush=True)
    print(f"{args.workload}: {len(runs)} runs of {seconds} s")
    unsteady = 0
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = spread(values)
        bound = bounds.get(name)
        line = (f"  {name:22s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                f"  spread {share:7.2%}")
        if bound is not None:
            line += f"  bound {bound:.0%}"
            if share >= bound / 3:
                # the spread of setup_s is reported but not gated
                unsteady += name != "setup_s"
                line += f"  UNSTEADY: {cause(name, values, args.repeat_seed is not None)}"
        print(line)
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
