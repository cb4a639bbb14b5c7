"""Each checker passes the program's real output and rejects a corrupted copy."""

from pathlib import Path

from repro.apps.sat import uf20_91_suite
from repro.engine import RunSpec, execute

from runbench import checks, workloads as wl


def _sat_run():
    cnf = uf20_91_suite(1, seed=5)[0]
    spec = RunSpec(workload="sat", workload_params=wl._sat_params(cnf),
                   topology="torus:3x3", simplify="none", seed=5)
    return cnf, execute(spec).verdict


def test_clause_check_rejects_a_flipped_literal():
    cnf, verdict = _sat_run()
    assert checks.clause_failures(cnf.clauses, cnf.num_vars, verdict) == []
    rejected = 0
    for i, (var, value) in enumerate(verdict["assignment"]):
        flipped = list(verdict["assignment"])
        flipped[i] = (var, not value)
        if checks.clause_failures(cnf.clauses, cnf.num_vars,
                                  dict(verdict, assignment=flipped)):
            rejected += 1
    assert rejected > 0


def test_clause_check_rejects_unsat_and_malformed_assignments():
    cnf, verdict = _sat_run()
    assert checks.clause_failures(cnf.clauses, 20, {"sat": False, "assignment": None})
    var, value = verdict["assignment"][0]
    for bad in ([(var, value), (var, value)], [(21, True)], [(var, 1)]):
        assert checks.clause_failures(cnf.clauses, 20, dict(verdict, assignment=bad))


def test_fib_check_rejects_off_by_one():
    run = execute(RunSpec(workload="fib", workload_params={"n": 10},
                          topology="torus:4x4"))
    value, invocations = run.verdict["value"], run.engine_stats.invocations
    assert checks.fibonacci(10) == 55
    assert checks.fib_failures(10, value, invocations) == []
    assert checks.fib_failures(10, value + 1, invocations)
    assert checks.fib_failures(10, value, invocations - 1)
    assert checks.fib_failures(11, value, invocations)


def test_resume_check_rejects_a_mismatched_digest(tmp_path: Path):
    op = wl.build_ops("lossy-ckpt", 3)[0]
    out = wl.run_op(op, tmp_path)
    assert out.ckpts >= 1 and wl.check(op, out) == []
    straight = (out.verdict, out.digest)
    verdict, digest = out.resumed
    assert checks.resume_failures(straight, (verdict, digest)) == []
    assert checks.resume_failures(straight, (verdict, "0" * len(digest)))
    assert checks.resume_failures(straight, ({"kind": "sat", "sat": False,
                                              "assignment": None}, digest))
    assert not list(tmp_path.iterdir())  # the operation removed its checkpoints


def test_delivery_check_rejects_lost_frames_and_exhausted_links():
    assert checks.delivery_failures((10, 10, 0)) == []
    assert checks.delivery_failures((10, 9, 0))
    assert checks.delivery_failures((10, 10, 1))
    assert checks.delivery_failures(None)
