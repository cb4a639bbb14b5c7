"""The four workloads: seeded inputs, one operation each, and its checks.

Every operation goes through the program's public run funnel,
:func:`repro.engine.execute`; ``fig4-pool`` runs the same operations as
``fig4-serial`` through :func:`repro.parallel.run_tasks`.  An operation
returns an :class:`Outcome` of plain data, so it can come back from a
pool worker, and :func:`check` judges it with :mod:`runbench.checks`.

Why these inputs:

* ``fig4-serial`` / ``fig4-pool`` — the paper's Figure 4 workload:
  uf20-91 instances from the program's seeded generator on the five
  Figure 4 series at four machine sizes.  Each instance runs on one cell,
  in rotation, so a round holds many distinct instances: the per-solve
  mean then moves little from seed to seed (one instance's message count
  varies by about 29%).
* ``fib-mesh`` — ``fib(n)`` on large 2D and 3D tori: a fixed grid of n,
  machine and mapper, with seeded trigger nodes and machine seeds.  Layer
  5 does almost nothing here, so it isolates the per-message path.
* ``lossy-ckpt`` — uf20-91 on the 25- and 27-node Figure 4 tori with
  drop 0.05 and duplicate 0.02 under reliable delivery, checkpointing
  every :data:`CKPT_EVERY` steps and resuming once from the middle
  checkpoint file.  The only workload through layer 1.5 and the state
  layer.  A round holds only 20 solves, so its instances, and the
  machine each runs on, are fixed: drawn from ``--seed``, 16 of them
  moved every metric by 10-17% between seeds.  The seed sets the fault
  draws and the machine seeds.

The set-up's warm-up operation is built from seed 0 whatever ``--seed``
is, so set-up time does not move with the seed's inputs.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import checks

WORKLOADS = ("fig4-serial", "fig4-pool", "fib-mesh", "lossy-ckpt")

#: Figure 4 machine sizes (requested cores; tori snap to squares/cubes)
FIG4_CORES = (9, 27, 64, 196)
#: distinct uf20-91 instances per Figure 4 round
FIG4_INSTANCES = 120
#: the status threshold the paper's LBN runs use
LBN_STATUS = 16

FIB_TOPOLOGIES = ("torus:16x16", "torus:24x24", "torus:6x6x6", "torus:8x8x8")
FIB_NS = (13, 14, 15)
#: how many times a fib-mesh round repeats its grid (new trigger and seed)
FIB_REPEATS = 5

LOSSY_TOPOLOGIES = ("torus:5x5", "torus:3x3x3")
#: distinct instances per lossy-ckpt round, and their generator seed
LOSSY_INSTANCES = 20
LOSSY_SUITE_SEED = 2017
LOSSY_DROP = 0.05
LOSSY_DUPLICATE = 0.02
#: checkpoint period in steps.  Lossy solves of these instances took 99
#: steps or more over seeds 1-40 (quartiles 138, 165, 208), so every
#: operation writes a checkpoint to resume from, and at 70 the median
#: solve sits inside the two-checkpoint majority rather than on the edge
#: between two checkpoint counts, where its time would jump between seeds
CKPT_EVERY = 70

#: the instance generator's fixed shape (uf20-91)
UF20_VARS = 20


class Op(NamedTuple):
    """One operation: a RunSpec plus what the checks need to know."""

    index: int
    kind: str  # "sat", "fib" or "lossy"
    spec: Any  # repro.engine.RunSpec
    clauses: Tuple[Tuple[int, ...], ...] = ()
    n: int = 0


class Outcome(NamedTuple):
    """What one operation returned, as plain picklable data."""

    index: int
    host_s: float
    error: Optional[str]
    verdict: Any = None
    sim_steps: int = 0
    messages: int = 0
    deliveries: int = 0
    peak_queued: int = 0
    invocations: int = 0
    retransmits: int = 0
    acks: int = 0
    link: Optional[Tuple[int, int, int]] = None  # data_sent, delivered, exhausted
    ckpts: int = 0
    ckpt_bytes: int = 0
    resumed: Optional[Tuple[Any, Optional[str]]] = None
    digest: Optional[str] = None
    maxrss_kb: int = 0
    spans: Optional[Dict[str, Any]] = None

    def counts(self) -> Tuple[int, ...]:
        """The exact counts a rerun of the same operation must repeat."""
        return (self.sim_steps, self.messages, self.deliveries, self.peak_queued,
                self.invocations, self.retransmits, self.acks, self.ckpts,
                self.ckpt_bytes)


def _sat_params(cnf: Any) -> Dict[str, Any]:
    return {"clauses": [list(c) for c in cnf.clauses], "num_vars": cnf.num_vars}


def _fig4_cells() -> List[Tuple[str, str]]:
    """``(topology spec, mapper)`` per (series, size) cell, as Figure 4
    builds them; the fully connected series maps at random."""
    from repro.bench.suites import figure4_series, mesh_for
    from repro.topology import spec_of

    cells = []
    for _label, kind, mapper in figure4_series():
        seen = set()
        for cores in FIG4_CORES:
            topo = mesh_for(kind, cores)
            if topo.n_nodes in seen:
                continue
            seen.add(topo.n_nodes)
            cells.append((spec_of(topo), mapper))
    return cells


def _spec_seed(seed: int, index: int) -> int:
    return (seed * 100_003 + index) % (2**31)


def _sat_op(kind: str, index: int, cnf: Any, cell: Tuple[str, str], seed: int,
            **extra: Any) -> Op:
    from repro.engine import RunSpec

    topology, mapper = cell
    spec = RunSpec(
        workload="sat", workload_params=_sat_params(cnf),
        topology=topology, mapper=mapper,
        status=LBN_STATUS if mapper == "lbn" else None,
        simplify="none", seed=_spec_seed(seed, index), max_steps=2_000_000,
        **extra,
    )
    return Op(index, kind, spec, tuple(cnf.clauses))


def _lossy_op(index: int, cnf: Any, seed: int) -> Op:
    cells = [(t, m) for t in LOSSY_TOPOLOGIES for m in ("rr", "lbn")]
    return _sat_op("lossy", index, cnf, cells[index % len(cells)], seed,
                   drop=LOSSY_DROP, duplicate=LOSSY_DUPLICATE, reliable=True,
                   checkpoint_every=CKPT_EVERY)


def build_ops(workload: str, seed: int) -> List[Op]:
    """The operations of one round; a pure function of ``(workload, seed)``."""
    from repro.apps.sat import uf20_91_suite

    if workload in ("fig4-serial", "fig4-pool"):
        cells = _fig4_cells()
        return [_sat_op("sat", i, cnf, cells[i % len(cells)], seed)
                for i, cnf in enumerate(uf20_91_suite(FIG4_INSTANCES, seed=seed))]
    if workload == "fib-mesh":
        from repro.engine import RunSpec
        from repro.topology import topology_from_spec

        rng = random.Random(f"fib-mesh:{seed}")
        ops = []
        for _repeat in range(FIB_REPEATS):
            for topology in FIB_TOPOLOGIES:
                n_nodes = topology_from_spec(topology).n_nodes
                for mapper in ("rr", "lbn"):
                    for n in FIB_NS:
                        i = len(ops)
                        spec = RunSpec(
                            workload="fib", workload_params={"n": n},
                            topology=topology, mapper=mapper,
                            status=LBN_STATUS if mapper == "lbn" else None,
                            trigger_node=rng.randrange(n_nodes),
                            seed=_spec_seed(seed, i),
                        )
                        ops.append(Op(i, "fib", spec, n=n))
        return ops
    if workload == "lossy-ckpt":
        return [_lossy_op(i, cnf, seed) for i, cnf in
                enumerate(uf20_91_suite(LOSSY_INSTANCES, seed=LOSSY_SUITE_SEED))]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_op(workload: str) -> Op:
    """The untimed warm-up operation: the workload's first kind of
    operation on inputs from seed 0, whatever the run's seed."""
    from repro.apps.sat import uf20_91_suite

    if workload == "fib-mesh":
        return build_ops(workload, 0)[0]
    cnf = uf20_91_suite(1, seed=0)[0]
    if workload == "lossy-ckpt":
        return _lossy_op(0, cnf, 0)
    return _sat_op("sat", 0, cnf, _fig4_cells()[0], 0)


def _outcome(op: Op, run: Any, host_s: float, **extra: Any) -> Outcome:
    report = run.report
    stats = run.engine_stats
    link = run.link_stats
    return Outcome(
        index=op.index,
        host_s=host_s,
        error=None,
        verdict=run.verdict,
        sim_steps=report.computation_time,
        messages=report.sent_total,
        deliveries=report.delivered_total,
        peak_queued=report.peak_queued,
        invocations=stats.invocations if stats is not None else 0,
        retransmits=link.retransmits if link is not None else 0,
        acks=link.acks_sent if link is not None else 0,
        link=(link.data_sent, link.delivered, link.exhausted) if link is not None else None,
        **extra,
    )


def run_op(op: Op, workdir: Path) -> Outcome:
    """Execute one operation; a raised error becomes ``Outcome.error``.

    ``host_s`` covers the program's calls only, not the checks.  A lossy
    operation writes its checkpoints under ``workdir`` and removes them.
    """
    from repro.engine import execute

    try:
        if op.kind != "lossy":
            start = perf_counter()
            run = execute(op.spec)
            return _outcome(op, run, perf_counter() - start)
        ckpt_dir = workdir / f"op-{op.index}"
        try:
            spec = op.spec.with_(checkpoint_dir=str(ckpt_dir))
            start = perf_counter()
            run = execute(spec)
            files = sorted(ckpt_dir.glob("*.ckpt"))
            middle = files[len(files) // 2] if files else None
            resumed = None
            if middle is not None:
                resumed = execute(
                    spec.with_(checkpoint_every=None, checkpoint_dir=None),
                    resume_from=str(middle),
                )
            host_s = perf_counter() - start
            return _outcome(
                op, run, host_s,
                ckpts=len(files),
                ckpt_bytes=sum(f.stat().st_size for f in files),
                digest=run.semantic_digest,
                resumed=(resumed.verdict, resumed.semantic_digest) if resumed else None,
            )
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
    except Exception as exc:  # counted as a failed operation, run goes on
        return Outcome(op.index, 0.0, f"{type(exc).__name__}: {exc}")


def check(op: Op, out: Outcome) -> List[str]:
    """Failures of one operation's output (empty when it is correct)."""
    if out.error is not None:
        return [out.error]
    if op.kind == "fib":
        value = out.verdict.get("value") if isinstance(out.verdict, dict) else None
        return checks.fib_failures(op.n, value, out.invocations)
    failures = checks.clause_failures(op.clauses, UF20_VARS, out.verdict)
    if op.kind == "lossy":
        failures += checks.delivery_failures(out.link)
        if out.resumed is None:
            failures.append("no checkpoint was written, so nothing was resumed")
        else:
            failures += checks.resume_failures((out.verdict, out.digest), out.resumed)
    return failures


# -- the process pool ------------------------------------------------------


def pool_cell(task: Tuple[Op, bool]) -> Outcome:
    """One ``fig4-pool`` cell, run inside a worker.

    Returns the verdict and counts, the time spent inside the worker and
    the worker's peak RSS; with tracing on, also the cell's span totals.
    """
    op, traced = task
    tracer = None
    if traced:
        from .spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = run_op(op, Path("."))  # fig4 cells write no files
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out._replace(
        maxrss_kb=peak_rss_kb(),
        spans=tracer.totals() if tracer is not None else None,
    )


def pool_workers() -> int:
    """Workers for ``fig4-pool``: one per host core (``nproc``)."""
    from repro.parallel import resolve_jobs

    return resolve_jobs(0)


def run_pool_round(ops: Sequence[Op], traced: bool) -> List[Outcome]:
    """All cells through :func:`repro.parallel.run_tasks`, at the chunk
    size :func:`repro.parallel.solve_sat_tasks` picks (two chunks per
    worker)."""
    from repro.parallel import run_tasks

    workers = pool_workers()
    chunksize = max(1, -(-len(ops) // (workers * 2))) if workers > 1 else None
    tasks = [(op, traced) for op in ops]
    return run_tasks(pool_cell, tasks, jobs=workers, chunksize=chunksize)


def peak_rss_kb() -> int:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def workdir_for(root: Path) -> Path:
    """A scratch directory inside the checkout, private to this process."""
    path = root / ".runbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
