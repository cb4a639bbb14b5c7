"""End-to-end benchmark of the run engine (see ``runbench/README.md``).

``python3 runbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line.
The package imports the program from the checkout's ``src/`` tree, never
from an installed copy, so a benchmark run always measures the code
beside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout the benchmark lives in
ROOT = Path(__file__).resolve().parent.parent
#: the program's source tree inside that checkout
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises :class:`FileNotFoundError` when the checkout holds no program
    (the benchmark directory copied on its own), so a run fails instead of
    measuring some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
