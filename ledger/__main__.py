"""``python3 -m ledger`` — the benchmark's commands.

``bench``     one run of one workload; the command ``BENCHMARK.json``
              declares.  Prints the metrics, then the result as one JSON
              object on the last line.
``run``       every workload (or one), each in a fresh process, with
              every metric printed by name and unit.
``spread``    the untraced benchmark N times: run-to-run spread of every
              metric against its declared bound.
``selftest``  a quick-sized pass checking the benchmark against its own
              declaration.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

from . import RESULTS, report, use_checkout_sources
from .procs import adopt_orphans, reap_all
from .spec import load_spec


def _bench(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set iteration order inside the program;
        # pin it, so that one seed means one sequence of operations.
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, "-m", "ledger", *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    spec = load_spec()
    if args.workload not in spec.workloads:
        raise SystemExit(
            f"ledger: unknown workload {args.workload!r}; "
            f"BENCHMARK.json declares {spec.workloads}"
        )
    use_checkout_sources()
    from .workloads import run_workload
    from .world import Sizes

    traced = bool(args.trace)
    seconds = args.seconds or float(spec.run_seconds)
    # Everything the run writes stays inside the checkout, including
    # what the program would put in the system's temporary directory.
    tmp = RESULTS / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    adopt_orphans()
    # A terminated run unwinds like a failed one, through the finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        run = run_workload(
            args.workload,
            args.seed,
            seconds,
            traced,
            Sizes.for_quick() if args.quick else Sizes(),
            tmp,
        )
    finally:
        # On every path out: no process this run started is still there.
        reap_all()
        shutil.rmtree(tmp, ignore_errors=True)

    declared = spec.metrics(traced)
    values = run.per_layer if traced else run.end_to_end
    unknown = sorted(set(values) - {metric.name for metric in declared})
    if unknown:
        raise SystemExit(f"ledger: metrics not in BENCHMARK.json: {unknown}")
    # A per-layer metric a workload did not fill is a layer that did no
    # work there; an end-to-end metric must always be measured.
    missing = [m.name for m in declared if m.name not in values]
    if missing and not traced:
        raise SystemExit(f"ledger: end-to-end metrics not measured: {missing}")
    metrics = {
        metric.name: {
            "value": float(values.get(metric.name, 0.0)),
            "unit": metric.unit,
        }
        for metric in declared
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=seconds,
        traced=traced,
        quick=args.quick,
        errors=run.errors,
        setup_parts_s=run.setup,
        one_shot_repetitions_s=run.one_shots,
        **run.detail,
    )
    name = f"{args.workload}-seed{args.seed}-trace{int(traced)}"
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer:
        (RESULTS / f"{name}-spans.json").write_text(
            json.dumps(run.tracer.span_dump()) + "\n"
        )

    print(
        f"{args.workload} seed={args.seed} seconds={seconds:g} "
        f"traced={int(traced)} quick={int(args.quick)} "
        f"blocks={run.detail['blocks_run']}/{run.detail['blocks_planned']} "
        f"rankings_digest={run.detail['rankings_digest']} "
        f"replay_digest={run.detail['replay_digest']} "
        f"calib_ms={run.detail['calib_ms_before']:.1f}/"
        f"{run.detail['calib_ms_after']:.1f}"
    )
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    for error in run.errors:
        print(f"  FAILED: {error}")
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m ledger")
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench", help="one run of one workload")
    bench.add_argument("--workload", required=True)
    bench.add_argument("--seed", type=int, default=report.DEFAULT_SEED)
    bench.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed phase (default: BENCHMARK.json's run_seconds)",
    )
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.add_argument(
        "--quick",
        action="store_true",
        help="selftest sizes (3 blocks, 1 repetition); not a measurement",
    )
    bench.set_defaults(handler=_bench)
    report.add_commands(commands)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
