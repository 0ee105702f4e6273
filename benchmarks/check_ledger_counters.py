"""Compare the ledger's exact counters against the committed baseline.

``python3 benchmarks/check_ledger_counters.py [workload ...]`` runs
``python3 -m ledger bench`` once per workload (all of
``baseline/ledger_counters.json`` by default) and exits non-zero if any
of the six exact counters or the rankings digest differs from the
baseline by a single bit.  The counters are what the paper's cost model
is made of and they repeat exactly from run to run and seed to seed
(``ledger/README.md``), so any drift is a behaviour change — intended
ones update the baseline in the same commit.  Timings are only printed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "baseline" / "ledger_counters.json"
TIMINGS = ("setup_s", "index_docs_per_s", "query_qps", "query_p50_ms")


def main(argv: list[str]) -> int:
    baseline = json.loads(BASELINE.read_text())
    drifted = 0
    for workload in argv or list(baseline):
        done = subprocess.run(
            [sys.executable, "-m", "ledger", "bench", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
            raise SystemExit(f"{workload}: bench exited {done.returncode}")
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        digest = re.search(r"rankings_digest=(\w+)", done.stdout)
        measured = dict(metrics, rankings_digest=digest and digest.group(1))
        print(workload, *(f"{n}={metrics[n]:.4g}" for n in TIMINGS))
        if not result["correct"]:
            print(f"  FAILED: {result['failed']} of {result['attempted']}")
            drifted += 1
        for name, expected in baseline[workload].items():
            if measured.get(name) != expected:
                print(f"  DRIFT {name}: {measured.get(name)!r} != {expected!r}")
                drifted += 1
    print("ledger counters:", "DRIFTED" if drifted else "identical to baseline")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
