"""The repo's performance ledger: four workloads, measured from outside.

``python3 -m ledger bench --workload NAME --seed N --seconds S --trace 0|1``
is the command ``BENCHMARK.json`` declares; ``python3 -m ledger run`` runs
every workload and prints every metric.  See ``ledger/README.md`` for why
each workload and metric exists and for the timing rules.

Nothing under ``src/`` is edited or imported at module import time: the
package finds the checkout's ``src/`` when a command starts
(:func:`use_checkout_sources`) and measures every layer through public
functions and the public ``stats()`` / ``describe()`` / ``/stats``
surfaces.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

#: The program under test.
SRC = ROOT / "src"

#: Everything a run leaves behind lives here (gitignored).
RESULTS = Path(__file__).resolve().parent / "results"


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Exits non-zero when the checkout has no program to measure, or when
    ``repro`` would resolve to some other installation: a benchmark
    that silently measures another tree is worse than none.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: no program to measure at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(
            f"ledger: 'repro' resolved to {repro.__file__}, not {SRC}"
        )
