"""Output checks made apart from the program.

Nothing here calls the program's own checking code (``CNF.is_satisfied_by``,
the sequential solvers, the conformance oracle): each check recomputes
the expected answer from the inputs the benchmark generated.  Every
function returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple


def clause_failures(
    clauses: Sequence[Sequence[int]],
    num_vars: int,
    verdict: Dict[str, Any],
) -> List[str]:
    """Check a SAT verdict on an instance known to be satisfiable.

    The assignment must give each variable in ``1..num_vars`` at most one
    boolean value and make at least one literal of every clause true.
    An UNSAT verdict fails: the generator only emits satisfiable formulas.
    """
    if not verdict.get("sat"):
        return ["UNSAT verdict on a satisfiable instance"]
    values: Dict[int, bool] = {}
    for var, value in verdict.get("assignment") or ():
        if not (isinstance(var, int) and 1 <= var <= num_vars):
            return [f"assignment names variable {var!r} outside 1..{num_vars}"]
        if not isinstance(value, bool):
            return [f"variable {var} has non-boolean value {value!r}"]
        if var in values:
            return [f"variable {var} assigned twice"]
        values[var] = value
    for index, clause in enumerate(clauses):
        if not any(values.get(abs(lit)) is (lit > 0) for lit in clause):
            return [f"clause {index} {list(clause)} is not satisfied"]
    return []


def fibonacci(n: int) -> int:
    """F(n) with F(0) = 0, F(1) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_failures(n: int, value: Any, invocations: int) -> List[str]:
    """``fib(n)`` must return F(n) after exactly 2·F(n+1) − 1 invocations
    (one per node of the binary call tree, whose leaves are fib(0)/fib(1))."""
    failures = []
    if value != fibonacci(n):
        failures.append(f"fib({n}) returned {value!r}, expected {fibonacci(n)}")
    expected = 2 * fibonacci(n + 1) - 1
    if invocations != expected:
        failures.append(f"fib({n}) made {invocations} invocations, expected {expected}")
    return failures


def delivery_failures(link: Optional[Tuple[int, int, int]]) -> List[str]:
    """Reliable delivery must be exactly-once with no exhausted links;
    ``link`` is ``(data_sent, delivered, exhausted)`` from the link stats."""
    if link is None:
        return ["no link statistics: the reliability layer did not run"]
    data_sent, delivered, exhausted = link
    failures = []
    if delivered != data_sent:
        failures.append(f"delivered {delivered} of {data_sent} data frames")
    if exhausted:
        failures.append(f"{exhausted} links exhausted their retries")
    return failures


def resume_failures(
    straight: Tuple[Any, Optional[str]], resumed: Tuple[Any, Optional[str]]
) -> List[str]:
    """A resumed run must end with the verdict and semantic state digest
    of the uninterrupted run; each argument is ``(verdict, digest)``."""
    failures = []
    if resumed[0] != straight[0]:
        failures.append("resumed verdict differs from the uninterrupted run")
    if straight[1] is None or resumed[1] != straight[1]:
        failures.append(
            f"resumed state digest {resumed[1]!r} != uninterrupted {straight[1]!r}"
        )
    return failures
