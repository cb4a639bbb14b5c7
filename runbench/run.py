"""Run one workload of the end-to-end benchmark and print one JSON result.

Usage (from the root of a checkout)::

    python3 runbench/run.py --workload fig4-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all.
``--trace 1`` alternates untraced and traced rounds of the same
operations and reports the per-layer metrics.  ``--counts`` runs one
round untimed and prints the exact counts of its inputs.  The last line
of standard output is always the JSON result; lines before it are a
human-readable summary.  See ``runbench/README.md``.
"""

from time import perf_counter

#: process-start reference for setup_s (taken before any heavy import)
T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Sequence, Tuple  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import runbench  # noqa: E402
from runbench import workloads as wl  # noqa: E402

#: fresh-process set-up samples per run; setup_s reports their median
SETUP_SAMPLES = 3


# -- set-up ----------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path) -> List["wl.Op"]:
    """Import, build the inputs, validate every spec (which builds every
    topology) and run one untimed warm-up operation."""
    from repro.engine import validate

    ops = wl.build_ops(workload, seed)
    for op in ops:
        validate(op.spec)
    wl.run_op(wl.warmup_op(workload), workdir)
    return ops


def setup_samples(args: argparse.Namespace, own: float) -> List[float]:
    """This process's set-up time plus that of fresh processes doing the
    same set-up (``--setup-only``), run one after another."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# -- rounds ----------------------------------------------------------------


class Round:
    """One checked pass over every operation: outcomes, failures by
    operation index, wall time and, when traced, the span totals."""

    def __init__(self, outcomes: Sequence["wl.Outcome"], wall_s: float,
                 failures: Dict[int, List[str]], spans: List[Dict[str, Any]]) -> None:
        self.outcomes = list(outcomes)
        self.wall_s = wall_s
        self.failures = failures
        self.spans = spans


def run_round(workload: str, ops: Sequence["wl.Op"], workdir: Path,
              traced: bool = False) -> Round:
    """One whole round, checked.  Serial workloads are traced in this
    process for the round only; the pool traces inside its workers."""
    from runbench.spans import Tracer

    start = perf_counter()
    if workload == "fig4-pool":
        outcomes = wl.run_pool_round(ops, traced)
        spans = [out.spans for out in outcomes if out.spans]
    else:
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            outcomes = [wl.run_op(op, workdir) for op in ops]
        finally:
            if tracer is not None:
                tracer.uninstall()
        spans = [tracer.totals()] if tracer is not None else []
    failures = {}
    for op, out in zip(ops, outcomes):
        found = wl.check(op, out)
        if found:
            failures[op.index] = found
    return Round(outcomes, perf_counter() - start, failures, spans)


def run_rounds(workload: str, ops: Sequence["wl.Op"], workdir: Path,
               seconds: float, traced: bool) -> Tuple[List[Round], List[Round]]:
    """Whole rounds until the next one would pass ``seconds``; at least one.

    With ``traced`` each step is an untraced round followed by a traced
    round of the same operations.  Returns ``(untraced, traced)`` rounds.
    """
    plain: List[Round] = []
    spanned: List[Round] = []
    elapsed = 0.0
    while True:
        step_start = perf_counter()
        plain.append(run_round(workload, ops, workdir))
        if traced:
            spanned.append(run_round(workload, ops, workdir, traced=True))
        step = perf_counter() - step_start
        elapsed += step
        if elapsed + step > seconds:
            return plain, spanned


def round_failures(rounds: Sequence[Round]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)`` over rounds; an operation whose
    counts differ from the first round's is nondeterministic and fails."""
    attempted = failed = 0
    messages: List[str] = []
    first = {out.index: out.counts() for out in rounds[0].outcomes}
    for rnd in rounds:
        for out in rnd.outcomes:
            attempted += 1
            found = list(rnd.failures.get(out.index, ()))
            if out.error is None and out.counts() != first[out.index]:
                found.append("counts differ from the first round's")
            if found:
                failed += 1
                messages.append(f"op {out.index}: {'; '.join(found)}")
    return attempted, failed, messages


# -- metrics ---------------------------------------------------------------


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(rounds: Sequence[Round], setup_s: float) -> Dict[str, Any]:
    """The untraced metrics a user of the program sees."""
    wall = sum(r.wall_s for r in rounds)
    ok = [out for r in rounds for out in r.outcomes if out.index not in r.failures]
    if not ok:
        raise RuntimeError("every operation failed; no timing to report")
    one = rounds[0].outcomes
    rss_kb = max([wl.peak_rss_kb()] + [out.maxrss_kb for out in ok])
    return {
        "solves_per_s": _metric(len(ok) / wall, "1/s"),
        "solve_p50_ms": _metric(statistics.median(o.host_s for o in ok) * 1e3, "ms"),
        "deliveries_per_s": _metric(sum(o.deliveries for o in ok) / wall, "1/s"),
        "sim_steps_per_solve": _metric(_mean([o.sim_steps for o in one]), "steps"),
        "messages_per_solve": _metric(_mean([o.messages for o in one]), "msgs"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }


def layer_times(workload: str, rounds: Sequence[Round]) -> Dict[str, Any]:
    """Self time per layer, the covered and the wall time base of traced
    rounds.  On ``fig4-pool`` the spans ran in the workers, so the base
    is wall × workers (the worker-seconds the round had)."""
    from runbench.spans import LAYERS

    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    top = base = 0.0
    still_open = 0
    workers = wl.pool_workers() if workload == "fig4-pool" else 1
    for rnd in rounds:
        for t in rnd.spans:
            for key, value in t["self_s"].items():
                self_s[key] += value
            for key, value in t["inclusive_s"].items():
                inclusive[key] = inclusive.get(key, 0.0) + value
            for key, value in t["calls"].items():
                calls[key] = calls.get(key, 0) + value
            top += t["top_s"]
            still_open += t["open"]
        base += rnd.wall_s * workers
    return {"self_s": self_s, "inclusive_s": inclusive, "calls": calls,
            "top_s": top, "base_s": base, "workers": workers, "open": still_open}


def per_layer(workload: str, plain: Sequence[Round], spanned: Sequence[Round]
              ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The traced metrics, plus the layer-time breakdown they came from."""
    times = layer_times(workload, spanned)
    self_s, inc, calls = times["self_s"], times["inclusive_s"], times["calls"]
    outs = [out for r in spanned for out in r.outcomes]
    solves = len(outs)
    deliveries = sum(o.deliveries for o in outs) or 1
    invocations = sum(o.invocations for o in outs) or 1
    saves = calls.get("state.save_checkpoint", 0)
    resumes = calls.get("state.load_checkpoint", 0)
    ckpt_s = sum(inc.get(name, 0.0) for name in (
        "Machine.snapshot", "SchedulerProgram.snapshot", "ReliableDelivery.snapshot",
        "StackCheckpoint.build", "state.save_checkpoint"))
    restore_s = (inc.get("state.load_checkpoint", 0.0) + inc.get("Machine.restore", 0.0)
                 + inc.get("SchedulerProgram.restore", 0.0)
                 + inc.get("ReliableDelivery.restore", 0.0))
    digest_s = inc.get("state.state_digest_of", 0.0) + inc.get("engine.state_digest_of", 0.0)
    pool_eff = pool_overhead = 0.0
    if workload == "fig4-pool":
        workers = times["workers"]
        wall = sum(r.wall_s for r in plain)
        cell_s = sum(o.host_s for r in plain for o in r.outcomes)
        cells = sum(len(r.outcomes) for r in plain)
        pool_eff = cell_s / (wall * workers)
        pool_overhead = (wall * workers - cell_s) / cells * 1e3
    us = 1e6
    metrics = {
        "engine.assemble_ms_per_solve": _metric(self_s["engine"] / solves * 1e3, "ms"),
        "netsim.self_us_per_delivery": _metric(self_s["netsim"] / deliveries * us, "us"),
        "netsim.peak_queued": _metric(_mean([o.peak_queued for o in outs]), "msgs"),
        "reliability.self_us_per_delivery":
            _metric(self_s["reliability"] / deliveries * us, "us"),
        "reliability.retransmits_per_solve":
            _metric(_mean([o.retransmits for o in outs]), "frames"),
        "reliability.acks_per_solve": _metric(_mean([o.acks for o in outs]), "frames"),
        "sched.self_us_per_delivery": _metric(self_s["sched"] / deliveries * us, "us"),
        "mapping.self_us_per_delivery": _metric(self_s["mapping"] / deliveries * us, "us"),
        "mapping.tickets_per_solve":
            _metric(calls.get("MappingContext.call", 0) / solves, "calls"),
        "recursion.self_us_per_delivery":
            _metric(self_s["recursion"] / deliveries * us, "us"),
        "recursion.invocations_per_solve":
            _metric(_mean([o.invocations for o in outs]), "count"),
        "apps.self_us_per_invocation": _metric(self_s["apps"] / invocations * us, "us"),
        "state.ckpt_ms": _metric(ckpt_s / saves * 1e3 if saves else 0.0, "ms"),
        "state.ckpts_per_solve": _metric(saves / solves, "count"),
        "state.digest_ms_per_solve": _metric(digest_s / solves * 1e3, "ms"),
        "state.restore_ms": _metric(restore_s / resumes * 1e3 if resumes else 0.0, "ms"),
        "ckpt_bytes_per_solve": _metric(_mean([o.ckpt_bytes for o in outs]), "bytes"),
        "parallel.efficiency": _metric(pool_eff, "ratio"),
        "parallel.overhead_ms_per_cell": _metric(pool_overhead, "ms"),
        "trace.overhead_ratio": _metric(
            sum(r.wall_s for r in spanned) / sum(r.wall_s for r in plain), "ratio"),
        "trace.unattributed_share": _metric(
            (times["base_s"] - times["top_s"]) / times["base_s"], "ratio"),
    }
    return metrics, times


def breakdown_consistent(times: Dict[str, Any]) -> bool:
    """Layer self times plus the unattributed remainder must add up to the
    time base: a broken span stack (a span left open, a child charged
    twice) shows here."""
    unattributed = times["base_s"] - times["top_s"]
    total = sum(times["self_s"].values()) + unattributed
    return (times["open"] == 0 and unattributed >= 0
            and abs(total - times["base_s"]) <= 1e-6 * times["base_s"])


# -- entry point -------------------------------------------------------------


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    parser.add_argument("--counts", action="store_true",
                        help="run one round untimed and print its exact counts")
    return parser.parse_args(argv)


def counts_of(workload: str, seed: int, outcomes: Sequence["wl.Outcome"]) -> Dict[str, Any]:
    """The exact reference counts of one round (no host times)."""
    return {
        "workload": workload,
        "seed": seed,
        "solves": len(outcomes),
        "sim_steps_per_solve": _mean([o.sim_steps for o in outcomes]),
        "messages_per_solve": _mean([o.messages for o in outcomes]),
        "ckpt_bytes_per_solve": _mean([o.ckpt_bytes for o in outcomes]),
        "invocations": sum(o.invocations for o in outcomes),
    }


def summary(workload: str, rounds: Sequence[Round]) -> str:
    """A human-readable line: sample count, median and, with at least 100
    samples (ten beyond it), the 90th percentile."""
    times = sorted(o.host_s * 1e3 for r in rounds for o in r.outcomes if o.error is None)
    line = f"{workload}: {len(rounds)} rounds, {len(times)} solves"
    if times:
        line += f", p50 {statistics.median(times):.2f} ms"
    if len(times) >= 100:
        line += f", p90 {statistics.quantiles(times, n=10)[-1]:.2f} ms"
    return line


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    try:
        runbench.use_checkout_src()
    except FileNotFoundError as exc:
        print(f"runbench: {exc}", file=sys.stderr)
        return 2
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(runbench.SRC):
        print(f"runbench: imported repro from {repro.__file__}, not {runbench.SRC}",
              file=sys.stderr)
        return 2
    workdir = wl.workdir_for(runbench.ROOT)
    try:
        ops = setup(args.workload, args.seed, workdir)
        own_setup = perf_counter() - T0
        if args.setup_only:
            print(f"{own_setup:.6f}")
            return 0
        if args.counts:
            outcomes = [wl.run_op(op, workdir) for op in ops]
            print(json.dumps(counts_of(args.workload, args.seed, outcomes)))
            return 0
        plain, spanned = run_rounds(args.workload, ops, workdir, args.seconds,
                                    traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    rounds = plain + spanned
    attempted, failed, messages = round_failures(rounds)
    for message in messages[:20]:
        print(f"FAILED {message}")
    print(summary(args.workload, plain))
    correct = True
    if args.trace:
        metrics, times = per_layer(args.workload, plain, spanned)
        correct = breakdown_consistent(times)
        base = times["base_s"]
        shares = ", ".join(f"{k} {v / base:.1%}" for k, v in times["self_s"].items())
        print(f"self-time shares of {base:.2f} s: {shares}, "
              f"unattributed {(base - times['top_s']) / base:.1%}")
    else:
        setup_s = statistics.median(setup_samples(args, own_setup))
        metrics = end_to_end(plain, setup_s)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
