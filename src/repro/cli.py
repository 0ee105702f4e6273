"""Command-line interface.

Subcommands::

    repro stats       corpus statistics (Table 1) for a synthetic corpus
                      or a directory of .txt files
    repro search      build + index + query in one shot, against any
                      registered retrieval backend (--backend), single
                      query or batch query-log replay (--batch); persist
                      an indexed collection with --save and serve it
                      again with --load (skipping indexing entirely);
                      every repro.config.ServiceConfig knob is a flag
                      (--cache-capacity, --store-dir, --overlay-fanout,
                      --replication, ...)
    repro serve       boot the asyncio HTTP gateway over a pool of
                      snapshot-loaded SearchService worker processes
                      (--snapshot --port --pool-size --max-inflight
                      --rate-limit); drains gracefully on SIGTERM
    repro experiment  run the Section-5 growth experiment over any
                      backend sweep (--backends)
    repro plan        adaptive parameter planning from a traffic budget
    repro traffic     the Figure-8 total-traffic model

Run ``repro <subcommand> --help`` for options.  Everything prints plain
text; machine-readable output can use ``--format csv`` where offered.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import re
import sys
from pathlib import Path
from typing import Iterator, Sequence, get_args, get_type_hints

from . import __version__
from .analysis.planner import plan_parameters
from .analysis.traffic import TrafficModel
from .config import ExperimentParameters, HDKParameters, ServiceConfig
from .corpus import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
    build_collection_from_texts,
    compute_statistics,
)
from .corpus.querylog import QueryLogGenerator
from .engine.backends import registry
from .engine.experiment import GrowthExperiment
from .engine.reporting import render_growth_table
from .engine.service import SearchService
from .errors import ConfigurationError
from .utils import format_count, format_table

__all__ = ["main", "build_parser"]


def _add_corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--docs", type=int, default=300, help="synthetic documents"
    )
    parser.add_argument(
        "--vocabulary", type=int, default=2_000, help="vocabulary size"
    )
    parser.add_argument(
        "--doc-length", type=int, default=60, help="mean document length"
    )
    parser.add_argument(
        "--topics", type=int, default=10, help="number of topics"
    )
    parser.add_argument(
        "--zipf-skew", type=float, default=1.2, help="Zipf skew a"
    )
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    parser.add_argument(
        "--text-dir",
        type=Path,
        default=None,
        help="index .txt files from this directory instead of synthesizing",
    )


def _add_hdk_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--df-max", type=int, default=15)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--s-max", type=int, default=3)
    parser.add_argument("--ff", type=int, default=10_000)
    parser.add_argument("--peers", type=int, default=8)
    parser.add_argument(
        "--overlay", choices=["chord", "pgrid"], default="chord"
    )


def _build_collection(args: argparse.Namespace):
    if args.text_dir is not None:
        paths = sorted(args.text_dir.glob("*.txt"))
        if not paths:
            raise SystemExit(f"no .txt files under {args.text_dir}")
        texts = [path.read_text(encoding="utf-8") for path in paths]
        return build_collection_from_texts(
            texts, title_fn=lambda i: paths[i].name
        )
    config = SyntheticCorpusConfig(
        vocabulary_size=args.vocabulary,
        mean_doc_length=args.doc_length,
        num_topics=args.topics,
        zipf_skew=args.zipf_skew,
    )
    return SyntheticCorpusGenerator(config, seed=args.seed).generate(
        args.docs
    )


def _hdk_params(args: argparse.Namespace) -> HDKParameters:
    return HDKParameters(
        df_max=args.df_max,
        window_size=args.window,
        s_max=args.s_max,
        ff=args.ff,
    )


# -- subcommand implementations -----------------------------------------------


def _flag(knob: str) -> str:
    return "--" + knob.replace("_", "-")


def _add_knob_options(
    parser: argparse.ArgumentParser, names: Sequence[str] | None = None
) -> None:
    """One option per :class:`ServiceConfig` field (or just ``names``):
    flag, type, default and help all come from the field."""
    hints = get_type_hints(ServiceConfig)
    for knob in dataclasses.fields(ServiceConfig):
        if names is not None and knob.name not in names:
            continue
        kinds = get_args(hints[knob.name]) or (hints[knob.name],)
        # Exactly one: a field of a type not mapped here fails the build.
        (kind,) = [k for k in (bool, int, Path) if k in kinds]
        if kind is bool:
            parser.add_argument(
                _flag(knob.name),
                action=argparse.BooleanOptionalAction
                if type(None) in kinds
                else "store_true",
                default=knob.default,
                help=knob.metadata["help"],
            )
            continue
        shown = "" if knob.default is None else f" (default {knob.default})"
        parser.add_argument(
            _flag(knob.name),
            type=kind,
            default=knob.default,
            metavar="DIR" if kind is Path else "N",
            help=knob.metadata["help"] + shown,
        )


_KNOB_NAME = re.compile(
    r"\b(%s)\b"
    % "|".join(knob.name for knob in dataclasses.fields(ServiceConfig))
)


@contextlib.contextmanager
def _knob_errors_exit() -> Iterator[None]:
    """Turn a :class:`ConfigurationError` into a one-line exit that
    names each knob by its flag."""
    try:
        yield
    except ConfigurationError as exc:
        raise SystemExit(
            _KNOB_NAME.sub(lambda match: _flag(match[0]), str(exc))
        ) from None


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    """The knob options of ``args`` (whichever the subcommand has) as a
    :class:`ServiceConfig`; the rest keep their defaults."""
    with _knob_errors_exit():
        return ServiceConfig(
            **{
                knob.name: getattr(args, knob.name)
                for knob in dataclasses.fields(ServiceConfig)
                if hasattr(args, knob.name)
            }
        )


def _cmd_stats(args: argparse.Namespace) -> int:
    collection = _build_collection(args)
    stats = compute_statistics(collection)
    rows = stats.summary_rows()
    rows.append(("hapax legomena", f"{stats.hapax_count():,}"))
    print(format_table(["statistic", "value"], rows))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.batch < 0:
        raise SystemExit(f"--batch must be >= 0, got {args.batch}")
    if args.query is None and not args.batch:
        raise SystemExit("a query string is required unless --batch is given")
    if args.query is not None and args.batch:
        raise SystemExit(
            "--batch replays a generated query log and would ignore "
            f"{args.query!r}; drop the query string or --batch"
        )
    config = _service_config(args)
    if args.load is not None:
        # Serve a snapshot: no corpus build, no indexing.  The corpus is
        # regenerated only when --batch needs documents to sample
        # queries from (pass the same corpus flags as at build time).
        with _knob_errors_exit():
            service = SearchService.load(
                args.load, backend=args.backend, config=config
            )
        collection = _build_collection(args) if args.batch else None
        print(
            f"loaded snapshot {args.load} "
            f"({service.stored_postings_total():,} stored postings, "
            f"backend={service.backend_name})"
        )
    else:
        collection = _build_collection(args)
        params = _hdk_params(args)
        service = SearchService.build(
            collection,
            num_peers=args.peers,
            backend=args.backend or "hdk",
            params=params,
            overlay=args.overlay,
            config=config,
        )
        service.index()
        print(
            f"indexed {len(collection)} documents over {args.peers} peers "
            f"({service.stored_postings_total():,} stored postings, "
            f"backend={service.backend_name})"
        )
    if args.save is not None:
        service.save(args.save)
        print(f"saved snapshot to {args.save}")
    if args.trace:
        from .obs.trace import get_tracer

        get_tracer().enable()
    if args.batch:
        code = _run_batch(args, service, collection)
        if args.trace:
            _print_recent_trace()
        return code
    response = service.search(args.query, k=args.top)
    print(
        f"query {args.query!r}: n_k={response.keys_looked_up}, "
        f"{response.postings_transferred} postings transferred "
        f"({response.elapsed_ms:.1f} ms)"
    )
    rows = []
    for rank, ranked in enumerate(response.results, start=1):
        title = (
            collection.get(ranked.doc_id).title
            if collection is not None and ranked.doc_id in collection
            else "-"
        )
        rows.append([rank, ranked.doc_id, f"{ranked.score:.3f}", title])
    print(format_table(["#", "doc", "score", "title"], rows))
    if args.trace:
        _print_recent_trace()
    return 0


def _print_recent_trace() -> None:
    """Print the most recent trace (--trace: the query just served)."""
    from .obs.trace import format_span_tree, get_tracer

    traces = get_tracer().recent_traces(limit=1)
    if not traces:
        print("no spans recorded")
        return
    trace = traces[0]
    print()
    print(f"trace {trace['trace_id']} ({len(trace['spans'])} spans):")
    print(format_span_tree(trace["spans"]))


def _run_batch(args: argparse.Namespace, service, collection) -> int:
    """Replay a generated query log through ``search_batch`` and print
    the aggregate traffic / cache breakdown."""
    queries = QueryLogGenerator(
        collection,
        window_size=service.params.window_size,
        min_hits=min(20, max(1, len(collection) // 20)),
        seed=args.seed,
    ).generate(args.batch)
    report = service.run_querylog(queries, k=args.top)
    rows = [
        ("queries", f"{report.num_queries:,}"),
        ("postings transferred", f"{report.total_postings_transferred:,}"),
        (
            "postings/query (mean)",
            f"{report.mean_postings_per_query:,.1f}",
        ),
        ("index lookups", f"{report.total_keys_looked_up:,}"),
        ("cache hits", f"{report.cache_hits:,}"),
        ("cache hit rate", f"{report.cache_hit_rate:.1%}"),
        ("batch time", f"{report.elapsed_ms:.1f} ms"),
    ]
    if report.traffic is not None:
        rows.append(
            (
                "retrieval postings (accounting)",
                f"{report.traffic.retrieval_postings:,}",
            )
        )
    print(format_table(["batch statistic", "value"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Deferred import: the serving stack (asyncio, multiprocessing) is
    # only paid for by the subcommand that uses it.
    from .serving import Gateway, GatewayConfig, WorkerPool, WorkerSpec

    if args.pool_size < 1:
        raise SystemExit(f"--pool-size must be >= 1, got {args.pool_size}")
    if args.max_inflight < 1:
        raise SystemExit(
            f"--max-inflight must be >= 1, got {args.max_inflight}"
        )
    if args.rate_limit < 0:
        raise SystemExit(
            f"--rate-limit must be >= 0, got {args.rate_limit}"
        )
    service_config = _service_config(args)
    if not args.snapshot.is_dir():
        raise SystemExit(f"snapshot directory not found: {args.snapshot}")
    if not 0.0 <= args.trace_sample <= 1.0:
        raise SystemExit(
            f"--trace-sample must be in [0, 1], got {args.trace_sample}"
        )
    sink = None
    if args.trace_dir is not None:
        from .obs.export import JsonlSpanSink
        from .obs.trace import get_tracer

        sink = JsonlSpanSink(
            args.trace_dir / "spans.jsonl",
            sample_rate=args.trace_sample,
        )
        tracer = get_tracer()
        tracer.add_sink(sink)
        tracer.enable()
        print(
            f"tracing to {args.trace_dir / 'spans.jsonl'} "
            f"(sample={args.trace_sample:g})",
            flush=True,
        )
    spec = WorkerSpec(
        snapshot=str(args.snapshot),
        backend=args.backend,
        config=service_config,
    )
    pool = WorkerPool(spec, size=args.pool_size)
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        rate_limit=args.rate_limit,
    )
    gateway = Gateway(pool, config)
    gateway.on_ready = lambda: print(
        f"serving on http://{config.host}:{gateway.port} "
        f"(pool={args.pool_size}, max_inflight={config.max_inflight}, "
        f"rate_limit={config.rate_limit or 'off'}); "
        "SIGTERM drains gracefully",
        flush=True,
    )
    print(
        f"loading snapshot {args.snapshot} into "
        f"{args.pool_size} worker process(es)...",
        flush=True,
    )
    try:
        pool.start()
    except ConfigurationError as exc:
        raise SystemExit(f"cannot serve {args.snapshot}: {exc}") from None
    try:
        try:
            gateway.run(install_signal_handlers=True)
        except KeyboardInterrupt:
            gateway.initiate_drain()
            gateway.wait_finished(30.0)
        snapshot = gateway.metrics.snapshot()
        print(
            f"drained: {snapshot['completed']} requests served "
            f"({snapshot['qps']} qps lifetime), "
            f"shed {snapshot['shed_overload']} overload / "
            f"{snapshot['shed_rate_limited']} rate-limited / "
            f"{snapshot['shed_draining']} draining"
        )
    finally:
        pool.shutdown()
    if sink is not None:
        from .obs.trace import get_tracer

        get_tracer().remove_sink(sink)
        sink.close()
        print(
            f"traces: {sink.written} spans written, "
            f"{sink.dropped} sampled out"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiment = ExperimentParameters(
        initial_peers=args.initial_peers,
        peer_step=args.peer_step,
        max_peers=args.max_peers,
        docs_per_peer=args.docs_per_peer,
        hdk=_hdk_params(args),
        seed=args.seed,
    )
    corpus = SyntheticCorpusConfig(
        vocabulary_size=args.vocabulary,
        mean_doc_length=args.doc_length,
        num_topics=args.topics,
        zipf_skew=args.zipf_skew,
    )
    results = GrowthExperiment(
        experiment,
        corpus_config=corpus,
        df_max_values=tuple(args.df_max_values),
        num_queries=args.queries,
        backends=tuple(args.backends),
    ).run()
    print(render_growth_table(results))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    distribution = {2: 0.7, 3: 0.3}
    if args.query_sizes:
        distribution = {}
        for piece in args.query_sizes.split(","):
            size, weight = piece.split(":")
            distribution[int(size)] = float(weight)
    plan = plan_parameters(
        args.budget,
        distribution,
        window_size=args.window,
        s_max=args.s_max,
        zipf_skew=args.zipf_skew,
    )
    rows = [
        ("recommended DF_max", plan.params.df_max),
        ("expected n_k", f"{plan.expected_keys_per_query:.2f}"),
        (
            "retrieval bound/query",
            format_count(plan.retrieval_bound_per_query),
        ),
        (
            "index size multiplier (IS/D bound)",
            f"{plan.index_size_multiplier:.2f}",
        ),
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    model = TrafficModel(df_max=args.df_max)
    rows = []
    for docs in args.doc_counts:
        point = model.point(docs)
        rows.append(
            [
                format_count(docs),
                format_count(point.st_total),
                format_count(point.hdk_total),
                f"{point.st_over_hdk:.1f}x",
            ]
        )
    print(format_table(["#docs", "single-term", "HDK", "ST/HDK"], rows))
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # No prefix matching anywhere: a removed flag (--memory-budget,
    # --mode) must fail as unrecognized, not be silently re-read as a
    # longer flag with a different unit (--memory-budget-bytes).
    parser = argparse.ArgumentParser(
        prog="repro",
        allow_abbrev=False,
        description=(
            "HDK-based P2P web retrieval "
            "(Podnar et al., ICDE 2007 reproduction)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
    )
    subparsers = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(
            argparse.ArgumentParser, allow_abbrev=False
        ),
    )

    stats = subparsers.add_parser("stats", help="collection statistics")
    _add_corpus_options(stats)
    stats.set_defaults(handler=_cmd_stats)

    search = subparsers.add_parser("search", help="index and query")
    _add_corpus_options(search)
    _add_hdk_options(search)
    search.add_argument(
        "query",
        nargs="?",
        default=None,
        help="query string (omit when using --batch)",
    )
    search.add_argument("--top", type=int, default=10)
    search.add_argument(
        "--backend",
        choices=registry.names(),
        default=None,
        help="retrieval backend (default hdk, or the snapshot's own "
        "with --load)",
    )
    search.add_argument(
        "--batch",
        type=int,
        default=0,
        metavar="N",
        help="replay an N-query generated log through search_batch "
        "and print aggregate traffic and cache statistics",
    )
    _add_knob_options(search)
    search.add_argument(
        "--save",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist the indexed collection as a snapshot directory "
        "(hdk / hdk_disk backends)",
    )
    search.add_argument(
        "--load",
        type=Path,
        default=None,
        metavar="DIR",
        help="serve a previously saved snapshot instead of building and "
        "indexing (corpus flags are ignored except for --batch query "
        "sampling; --backend may override the snapshot's backend)",
    )
    search.add_argument(
        "--trace",
        action="store_true",
        help="trace the query end to end and print the span tree "
        "(gateway-less: service, per-hop routing, and store spans) "
        "after the results",
    )
    search.set_defaults(handler=_cmd_search)

    serve = subparsers.add_parser(
        "serve",
        help="HTTP gateway over a pool of snapshot-loaded worker "
        "processes",
    )
    serve.add_argument(
        "--snapshot",
        type=Path,
        required=True,
        metavar="DIR",
        help="snapshot directory saved with 'repro search --save' "
        "(every worker process loads it)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 picks a free one)",
    )
    serve.add_argument(
        "--pool-size",
        type=int,
        default=2,
        metavar="N",
        help="worker processes, each loading the snapshot (true "
        "multi-core: one SearchService per process)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission-control window; requests beyond this many "
        "simultaneously in the pool are shed with 503 (default 64)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="QPS",
        help="per-client token-bucket rate limit in requests/second "
        "(clients are keyed by X-Client-Id header, else source IP; "
        "0 disables)",
    )
    serve.add_argument(
        "--backend",
        choices=registry.names(),
        default=None,
        help="override the snapshot manifest's backend for the workers",
    )
    _add_knob_options(serve, ("memory_budget_bytes", "cache_capacity"))
    serve.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="enable end-to-end tracing and append finished spans as "
        "JSONL under this directory (also lights up GET /trace/recent)",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of traces written to --trace-dir (deterministic "
        "per-trace sampling; errors are always kept; default 1.0)",
    )
    serve.set_defaults(handler=_cmd_serve)

    experiment = subparsers.add_parser(
        "experiment", help="Section-5 growth experiment"
    )
    _add_corpus_options(experiment)
    _add_hdk_options(experiment)
    experiment.add_argument("--initial-peers", type=int, default=2)
    experiment.add_argument("--peer-step", type=int, default=2)
    experiment.add_argument("--max-peers", type=int, default=4)
    experiment.add_argument("--docs-per-peer", type=int, default=40)
    experiment.add_argument("--queries", type=int, default=10)
    experiment.add_argument(
        "--df-max-values",
        type=int,
        nargs="+",
        default=[8, 16],
        help="DF_max sweep values",
    )
    experiment.add_argument(
        "--backends",
        nargs="+",
        choices=registry.names(),
        default=["hdk"],
        metavar="NAME",
        help="registry backends to sweep alongside the ST baseline "
        "(HDK-family names are measured at every DF_max value; "
        f"choices: {', '.join(registry.names())})",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    plan = subparsers.add_parser(
        "plan", help="parameter planning from a traffic budget"
    )
    plan.add_argument(
        "budget", type=float, help="max postings per query"
    )
    plan.add_argument(
        "--query-sizes",
        default="",
        help="size:weight pairs, e.g. '2:0.7,3:0.3'",
    )
    plan.add_argument("--window", type=int, default=20)
    plan.add_argument("--s-max", type=int, default=3)
    plan.add_argument("--zipf-skew", type=float, default=1.5)
    plan.set_defaults(handler=_cmd_plan)

    traffic = subparsers.add_parser(
        "traffic", help="Figure-8 total-traffic model"
    )
    traffic.add_argument("--df-max", type=int, default=400)
    traffic.add_argument(
        "--doc-counts",
        type=int,
        nargs="+",
        default=[100_000, 653_546, 10**7, 10**8, 10**9],
    )
    traffic.set_defaults(handler=_cmd_traffic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
