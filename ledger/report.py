"""``run``, ``spread`` and ``selftest``: the commands that call ``bench``
in fresh processes and read its result lines."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any

from . import RESULTS, ROOT
from .spec import Metric, Spec, load_spec

#: End-to-end metrics that are counts made in the counting pass or on
#: the final world: they must repeat bit for bit, whatever the seed.
EXACT = frozenset(
    {
        "postings_per_query",
        "hops_per_query",
        "inserted_postings_per_peer",
        "stored_postings_per_peer",
        "top20_overlap",
        "snapshot_bytes_per_posting",
    }
)

DEFAULT_SEED = 7

#: ``--seconds`` of a ``--quick`` pass.
QUICK_SECONDS = 3.0


def bench(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    quick: bool = False,
    echo: bool = False,
) -> dict[str, Any]:
    """One ``bench`` run in a fresh process; returns its result line."""
    command = [
        sys.executable, "-m", "ledger", "bench",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(traced)),
    ]
    if quick:
        command.append("--quick")
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        timeout=900,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"ledger: {' '.join(command)} exited {completed.returncode}\n"
            f"{completed.stdout}{completed.stderr}"
        )
    *report, result = completed.stdout.splitlines()
    if echo:
        print("\n".join(report), flush=True)
    return json.loads(result)


def _record(workload: str, seed: int) -> dict[str, Any]:
    """The full record ``bench`` left of its last untraced run."""
    path = RESULTS / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def _workloads(spec: Spec, only: str | None) -> list[str]:
    if only is None:
        return spec.workloads
    if only not in spec.workloads:
        raise SystemExit(
            f"ledger: unknown workload {only!r}; choose from {spec.workloads}"
        )
    return [only]


# -- run -------------------------------------------------------------------------------


def _run(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = QUICK_SECONDS if args.quick else float(spec.run_seconds)
    incorrect = []
    for workload in _workloads(spec, args.workload):
        result = bench(
            workload, args.seed, seconds, args.traced, args.quick, echo=True
        )
        if not result["correct"]:
            incorrect.append(workload)
    if incorrect:
        print(f"INCORRECT: {incorrect}")
        return 1
    return 0


# -- spread ----------------------------------------------------------------------------


def _spread(args: argparse.Namespace) -> int:
    if args.runs < 2:
        raise SystemExit("ledger: a spread needs --runs of at least 2")
    spec = load_spec()
    workloads = _workloads(spec, args.workload)
    # Round-robin over the workloads, so that a slow stretch of the
    # machine is shared between them instead of landing on one.
    results: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
    for index in range(args.runs):
        seed = args.seed + index if args.vary_seed else args.seed
        for workload in workloads:
            results[workload].append(
                bench(workload, seed, float(spec.run_seconds))
            )
            print(f"# {workload} run {index + 1}/{args.runs} seed={seed}",
                  file=sys.stderr, flush=True)
    broken = []
    for workload, runs in results.items():
        incorrect = sum(not run["correct"] for run in runs)
        seeds = (
            f"seeds {args.seed}..{args.seed + args.runs - 1}"
            if args.vary_seed
            else f"seed {args.seed}"
        )
        print(f"{workload}: {args.runs} runs, {seeds}, {incorrect} incorrect")
        print(
            f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict"
        )
        if incorrect:
            broken.append(f"{workload}: incorrect runs")
        for metric in spec.end_to_end:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            verdict = _verdict(metric, values, one_seed=not args.vary_seed)
            if verdict != "ok":
                broken.append(f"{workload}.{metric.name}: {verdict}")
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            print(
                f"  {metric.name:<28} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{(q3 - q1) / median:>8.2%} "
                f"{(max(values) - min(values)) / median:>9.2%} "
                f"{metric.bound:>6.1%}  {verdict}"
            )
    for line in broken:
        print(f"OUT OF BOUNDS: {line}")
    return 1 if broken else 0


def _verdict(metric: Metric, values: list[float], one_seed: bool) -> str:
    """One seed repeated: the whole range of a timing metric must fit
    its bound, and a counter must not move at all.  A seed per run: the
    driver's rule, the inter-quartile range must fit the bound."""
    assert metric.bound is not None
    median = statistics.median(values)
    if not one_seed:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return "ok" if (q3 - q1) / median <= metric.bound else "iqr above bound"
    if metric.name in EXACT:
        return "ok" if len(set(values)) == 1 else "not bit-identical"
    if (max(values) - min(values)) / median > metric.bound:
        return "range above bound"
    return "ok"


# -- selftest --------------------------------------------------------------------------


def _selftest(args: argparse.Namespace) -> int:
    spec = load_spec()
    problems: list[str] = []
    for workload in _workloads(spec, args.workload):
        first = bench(workload, args.seed, QUICK_SECONDS, quick=True)
        again = bench(workload, args.seed, QUICK_SECONDS, quick=True)
        other = bench(workload, args.seed + 1, QUICK_SECONDS, quick=True)
        traced = bench(
            workload, args.seed, QUICK_SECONDS, traced=True, quick=True
        )
        for label, result, declared in (
            ("untraced", first, spec.end_to_end),
            ("traced", traced, spec.per_layer),
        ):
            got = {
                name: entry["unit"]
                for name, entry in result["metrics"].items()
            }
            want = {metric.name: metric.unit for metric in declared}
            if got != want:
                problems.append(
                    f"{workload} {label}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(got.items()) ^ set(want.items()))}"
                )
        for label, result in (
            ("first", first), ("again", again), ("other", other),
            ("traced", traced),
        ):
            if result["failed"] or not result["correct"]:
                problems.append(
                    f"{workload} {label}: {result['failed']} of "
                    f"{result['attempted']} operations failed"
                )

        def exact(result: dict[str, Any]) -> dict[str, float]:
            return {
                name: result["metrics"][name]["value"] for name in sorted(EXACT)
            }

        if not exact(first) == exact(again) == exact(other):
            problems.append(
                f"{workload}: counters differ between passes: "
                f"{exact(first)}, {exact(again)}, {exact(other)}"
            )
        replays = [
            _record(workload, seed)["replay_digest"]
            for seed in (args.seed, args.seed + 1)
        ]
        if replays[0] == replays[1]:
            problems.append(
                f"{workload}: seeds {args.seed} and {args.seed + 1} gave "
                f"the timed blocks the same log"
            )
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    if not problems:
        print("selftest ok (quick sizes: not a measurement)")
    return 1 if problems else 0


def add_commands(commands: Any) -> None:
    run = commands.add_parser("run", help="every workload, every metric")
    run.add_argument("--traced", action="store_true",
                     help="the separate run that gives per-layer metrics")
    run.add_argument("--quick", action="store_true",
                     help="selftest sizes; flagged in the output")
    run.set_defaults(handler=_run)

    spread = commands.add_parser(
        "spread", help="run-to-run spread against the declared bounds"
    )
    spread.add_argument("--runs", type=int, default=5)
    spread.add_argument(
        "--vary-seed", action="store_true",
        help="give run i the seed SEED+i, as the driver does, instead of "
        "repeating one seed (the bit-identity check is then skipped)",
    )
    spread.set_defaults(handler=_spread)

    selftest = commands.add_parser(
        "selftest", help="check the benchmark against BENCHMARK.json"
    )
    selftest.set_defaults(handler=_selftest)

    for parser in (run, spread, selftest):
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument("--workload", default=None, metavar="NAME")
