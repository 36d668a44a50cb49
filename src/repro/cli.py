"""Command-line interface: ``python -m repro QUERY [FILE]``.

Streams a JSON file (or stdin) through a chosen engine and prints the
matches, one per line — a grep for JSONPath.  Examples::

    python -m repro '$.place.name' tweet.json
    python -m repro '$[*].text' tweets.json --count
    python -m repro '$.text' tweets.jsonl --jsonl --engine jpstream
    python -m repro '$.pd[*].cp[1:3].id' catalog.json --stats

Exit status (grep-inspired, with distinct failure classes): see
:data:`EXIT_CODES`, which is also rendered into ``--help``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.engine.stats import GROUPS
from repro.errors import (
    JsonPathSyntaxError,
    JsonSyntaxError,
    ReproError,
    ResourceLimitError,
    UnsupportedQueryError,
)
from repro.harness.runner import METHOD_LABELS
from repro.stream.records import RecordStream

#: The exit-code taxonomy, the single source of truth: the ``--help``
#: epilog and the table in ``docs/api.md`` are generated from / checked
#: against this mapping by the test suite.
EXIT_CODES = {
    0: "at least one match",
    1: "no match",
    2: "JSONPath syntax error, usage error, or unreadable input",
    3: "the query needs a feature the chosen engine does not support",
    4: "malformed JSON input",
    5: "a resource guard tripped (--max-depth / --timeout / record size)",
    6: "interrupted (SIGINT/SIGTERM) with --checkpoint; progress saved, resume with --resume",
}

#: Exit code for a run stopped by SIGINT/SIGTERM after flushing a checkpoint.
EXIT_INTERRUPTED = 6

#: Default checkpoint cadences: records between commits in --jsonl mode,
#: bytes of input between suspensions in single-record mode.
DEFAULT_CHECKPOINT_RECORDS = 1000
DEFAULT_CHECKPOINT_BYTES = 1 << 20


def exit_code_table() -> str:
    """The exit-code taxonomy as help-epilog text."""
    lines = ["exit codes:"]
    for code, meaning in sorted(EXIT_CODES.items()):
        lines.append(f"  {code}  {meaning}")
    return "\n".join(lines)


def _exit_code_for(exc: ReproError) -> int:
    """Map an error to the documented exit-code taxonomy."""
    if isinstance(exc, ResourceLimitError):
        return 5
    if isinstance(exc, JsonSyntaxError):
        return 4
    if isinstance(exc, UnsupportedQueryError):
        return 3
    return 2  # JsonPathSyntaxError and anything else query/usage-shaped


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stream JSONPath queries over JSON with bit-parallel fast-forwarding (JSONSki).",
        epilog=exit_code_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("query", help="JSONPath expression, e.g. '$.place.name'")
    parser.add_argument("file", nargs="?", default="-", help="input file ('-' or omitted: stdin)")
    parser.add_argument("--engine", choices=sorted(METHOD_LABELS), default="jsonski",
                        help="query engine (default: jsonski)")
    parser.add_argument("--jsonl", action="store_true",
                        help="input is newline-delimited JSON (one record per line)")
    parser.add_argument("--raw", action="store_true",
                        help="print raw matched text instead of one JSON value per line")
    parser.add_argument("--count", action="store_true", help="print only the number of matches")
    parser.add_argument("--first", action="store_true", help="print only the first match (early termination)")
    parser.add_argument("--paths", action="store_true",
                        help="prefix each match with its normalized path (jsonski only)")
    parser.add_argument("--stats", action="store_true",
                        help="report fast-forward ratios to stderr (jsonski only)")
    parser.add_argument("--metrics", nargs="?", const="-", default=None, metavar="FILE",
                        help="emit an engine metrics document after the run: JSON to stderr "
                             "(no argument) or to FILE; a FILE ending in .prom gets the "
                             "Prometheus text exposition instead")
    parser.add_argument("--trace", nargs="?", const="-", default=None, metavar="FILE",
                        help="emit engine spans (compile/index_build/scan/fastforward/"
                             "match_emit) as JSON lines to stderr (no argument) or FILE")
    parser.add_argument("--explain", action="store_true",
                        help="print the query's static fast-forward plan and exit")
    parser.add_argument("--analyze", action="store_true",
                        help="probe the input and report measured fast-forward behaviour")
    parser.add_argument("--cross-check", action="store_true",
                        help="run every engine and the oracle; fail on any disagreement")
    parser.add_argument("--index-cache", default=None, metavar="DIR",
                        help="persist the stage-1 structural index as a sidecar under "
                             "DIR: the next run over the same bytes skips indexing "
                             "entirely (two-stage engines, single-document input)")
    robust = parser.add_argument_group("robustness")
    robust.add_argument("--strict", dest="lenient", action="store_false", default=False,
                        help="fail on the first malformed record (the default)")
    robust.add_argument("--lenient", dest="lenient", action="store_true",
                        help="with --jsonl: skip malformed records, resume at the next "
                             "record boundary, and report what was skipped to stderr")
    robust.add_argument("--max-depth", type=int, default=None, metavar="N",
                        help="refuse records nested deeper than N containers "
                             "(default: 256; 0 disables the guard)")
    robust.add_argument("--max-record-bytes", type=int, default=None, metavar="N",
                        help="refuse single records larger than N bytes")
    robust.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="abandon the run after SECONDS via the cooperative deadline")
    robust.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="persist resumable progress checkpoints at FILE (atomic, "
                             "checksummed generations); with --jsonl progress is "
                             "per-record, otherwise the single record is suspended "
                             "mid-stream at chunk boundaries (jsonski only). "
                             "SIGINT/SIGTERM flush a final checkpoint and exit "
                             f"{EXIT_INTERRUPTED}")
    robust.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="checkpoint cadence: records between commits with --jsonl "
                             f"(default {DEFAULT_CHECKPOINT_RECORDS}), bytes of input "
                             "between suspensions in single-record mode "
                             f"(default {DEFAULT_CHECKPOINT_BYTES})")
    robust.add_argument("--resume", action="store_true",
                        help="resume from the newest valid generation of --checkpoint "
                             "(skipping completed records / already-streamed bytes); "
                             "without a usable checkpoint the run starts fresh")
    return parser


def _build_limits(args):
    """Translate the robustness flags into a ``Limits``; ``None`` keeps
    each engine's defaults."""
    from repro.resilience.guards import DEFAULT_LIMITS, Deadline, Limits

    if args.max_depth is None and args.max_record_bytes is None and args.timeout is None:
        return None
    if args.max_depth is None:
        max_depth = DEFAULT_LIMITS.max_depth
    elif args.max_depth <= 0:
        max_depth = None
    else:
        max_depth = args.max_depth
    return Limits(
        max_depth=max_depth,
        max_record_bytes=args.max_record_bytes,
        deadline=Deadline.after(args.timeout) if args.timeout else None,
    )


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _render(match, raw: bool):
    """A match as printed: its raw text (``--raw``) or its decoded value."""
    return match.text.decode("utf-8", "replace") if raw else match.value()


def _print_stats(engine, err) -> None:
    stats = engine.last_stats
    if stats is None:
        return
    parts = ", ".join(f"{g}={stats.ratio(g):.1%}" for g in GROUPS if stats.ratio(g) > 0)
    print(f"fast-forwarded {stats.overall_ratio:.1%} of {stats.total_length} bytes ({parts})", file=err)


def _finish_observability(args, info, registry, trace_sink, data: bytes, n_matches: int, err) -> int:
    """Flush --metrics / --trace output once the run is over.

    Returns 0, or 2 when the metrics file cannot be written.
    """
    if trace_sink is not None:
        trace_sink.close()
    if registry is None:
        return 0
    if not info.instrumented:
        # Baselines carry no internal counters; the CLI records the
        # run-level facts so the document is never empty.  bytes_total is
        # set with zero skips — these engines examine the whole input.
        registry.counter("engine.runs").add(1)
        registry.counter("engine.matches").add(n_matches)
        registry.counter("engine.bytes_consumed").add(len(data))
        registry.counter("ff.total_bytes").add(len(data))
    from repro.observe import metrics_document, render_prometheus
    from repro.storage import storage_metrics

    # Storage-substrate counters (sidecar rejects/quarantines, lock
    # waits, rebuilds) accumulate process-globally below any one engine
    # run; fold them in so a corrupt cache dir is visible, not a silent
    # cold-start tax.
    registry.merge(storage_metrics())

    try:
        if args.metrics != "-" and args.metrics.endswith(".prom"):
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(render_prometheus(registry))
            return 0
        import json as _json

        document = metrics_document(registry, engine=args.engine, query=args.query)
        if args.metrics == "-":
            _json.dump(document, err, indent=2, sort_keys=True)
            print(file=err)
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                _json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write metrics to {args.metrics}: {exc}", file=err)
        return 2
    return 0


def _run_lenient(args, engine, data: bytes, info, registry, trace_sink, out, err) -> int:
    """``--lenient --jsonl``: skip malformed records, report, keep going."""
    import json as _json

    from repro.resilience.recovery import run_with_recovery

    stream = RecordStream.from_jsonl(data)
    recovery = run_with_recovery(engine, stream, metrics=registry)
    if not recovery.ok:
        print(recovery.describe(), file=err)
    values = recovery.all_values()
    code = _finish_observability(args, info, registry, trace_sink, data, len(values), err)
    if code:
        return code
    if args.count:
        print(len(values), file=out)
        return 0 if values else 1
    for value in values[: 1 if args.first else len(values)]:
        print(_json.dumps(value, ensure_ascii=False), file=out)
    return 0 if values else 1


class _CliEmitter:
    """Adapter from the checkpoint emitter protocol onto the CLI output.

    When the stream is seekable (a redirected file, a test buffer) the
    resumed run truncates back to the checkpointed offset and the final
    output is exactly-once; a terminal/pipe falls back to at-least-once
    across the narrow crash window (``tell`` reports ``None``).
    """

    def __init__(self, stream) -> None:
        self.stream = stream

    def emit(self, index: int, values: list) -> None:
        from repro.engine.output import Match

        for value in values:
            if isinstance(value, Match):
                # Lazy view: splice the raw slice (already one JSON
                # value) — the checkpointed path never parses matches.
                print(value.text.decode("utf-8", "replace"), file=self.stream)
            else:
                print(json.dumps(value, ensure_ascii=False), file=self.stream)

    def flush(self) -> None:
        self.stream.flush()

    def tell(self):
        try:
            return self.stream.tell()
        except (OSError, ValueError, AttributeError):
            return None

    def truncate_to(self, offset) -> None:
        self.stream.seek(offset)
        self.stream.truncate(offset)


def _signal_stop():
    """Arm SIGINT/SIGTERM as *clean-stop requests* for checkpointed runs.

    Returns ``(stop, restore)``: ``stop(...)`` reports whether a signal
    arrived (accepted as both the record-cursor and no-arg callback), and
    ``restore()`` reinstates the previous handlers.
    """
    hits: list[int] = []

    def handler(signum, frame):  # pragma: no cover - signal delivery timing
        hits.append(signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # non-main thread or unsupported
            pass

    def stop(*_args) -> bool:
        return bool(hits)

    def restore() -> None:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover
                pass

    return stop, restore


def _run_checkpointed_records(args, engine, data, info, registry, trace_sink, out, err, stop) -> int:
    """``--checkpoint --jsonl``: record-granularity resumable streaming."""
    from repro.resilience.recovery import run_with_recovery

    stream = RecordStream.from_jsonl(data)
    every = args.checkpoint_every or DEFAULT_CHECKPOINT_RECORDS
    emitter = None if args.count else _CliEmitter(out)
    recovery = run_with_recovery(
        engine,
        stream,
        metrics=registry,
        checkpoint=args.checkpoint,
        checkpoint_every=every,
        resume=args.resume,
        emitter=emitter,
        stop=stop,
        # The CLI only ever streams raw slices (or counts); decoding
        # every match before re-encoding it was the emission bottleneck.
        materialize=False,
    )
    ck = recovery.checkpoint
    if ck.resumed_at:
        print(f"resumed from checkpoint at record {ck.resumed_at}", file=err)
    if not recovery.ok:
        print(recovery.describe(), file=err)
    code = _finish_observability(args, info, registry, trace_sink, data, ck.emitted, err)
    if code:
        return code
    if ck.interrupted:
        print(
            f"interrupted: progress checkpointed to {args.checkpoint}; "
            "rerun with --resume to continue",
            file=err,
        )
        return EXIT_INTERRUPTED
    if args.count:
        print(ck.emitted, file=out)
    return 0 if ck.emitted else 1


def _run_checkpointed_single(args, data, limits, out, err, stop) -> int:
    """``--checkpoint`` on one record: intra-record suspend/resume."""
    from repro.checkpoint import SUSPEND_KIND, CheckpointStore, SuspendableRun
    from repro.errors import CheckpointError

    store = CheckpointStore(args.checkpoint)
    every = args.checkpoint_every or DEFAULT_CHECKPOINT_BYTES
    run = None
    if args.resume:
        record = store.load_latest()
        for path, reason in store.skipped:
            print(f"warning: skipped invalid checkpoint: {reason}", file=err)
        if record is not None:
            payload = record.payload
            if payload.get("kind") != SUSPEND_KIND:
                raise CheckpointError(
                    f"checkpoint {record.path} is a {payload.get('kind')!r} "
                    "checkpoint, not a single-record suspension (did you "
                    "mean to pass --jsonl?)"
                )
            if payload.get("query") != args.query:
                raise CheckpointError(
                    f"checkpoint {record.path} was written for query "
                    f"{payload.get('query')!r}, not {args.query!r}"
                )
            run = SuspendableRun.resume(data, payload["engine_state"], limits=limits)
    else:
        store.clear()
    if run is None:
        run = SuspendableRun.begin(args.query, data, limits=limits)

    def save(done: bool) -> None:
        store.save({
            "kind": SUSPEND_KIND,
            "query": args.query,
            "done": done,
            "engine_state": run.suspend().to_dict(),
        })

    while not run.step(every):
        save(False)
        if stop():
            print(
                f"interrupted at byte {run.pos}/{run.size}: progress "
                f"checkpointed to {args.checkpoint}; rerun with --resume "
                "to continue",
                file=err,
            )
            return EXIT_INTERRUPTED
    save(True)
    matches = run.matches()
    n = len(matches)
    if args.count:
        print(n, file=out)
        return 0 if n else 1
    for match in list(matches)[: 1 if args.first else n]:
        print(_render(match, args.raw), file=out)
    return 0 if n else 1


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        # Subcommand dispatch: the query service front door has its own
        # parser and lifecycle (docs/serving.md).
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:], out=out, err=err)
    args = build_parser().parse_args(argv)

    if args.explain:
        from repro.query.explain import explain

        try:
            print(explain(args.query).describe(), file=out)
        except ReproError as exc:
            print(f"error: {exc}", file=err)
            return 2
        return 0

    if args.analyze:
        from repro.analysis import analyze

        try:
            data = _read_input(args.file)
            print(analyze(data, args.query).describe(), file=out)
        except OSError as exc:
            print(f"error: {exc}", file=err)
            return 2
        except ReproError as exc:
            print(f"error: {exc}", file=err)
            return _exit_code_for(exc)
        return 0

    if args.cross_check:
        from repro.crosscheck import cross_check, cross_check_records

        try:
            data = _read_input(args.file)
            if args.jsonl:
                results = cross_check_records(data, args.query)
                print(f"{len(results)} records cross-checked, all engines agree", file=out)
            else:
                print(cross_check(data, args.query).describe(), file=out)
        except OSError as exc:
            print(f"error: {exc}", file=err)
            return 2
        except ReproError as exc:
            print(f"error: {exc}", file=err)
            return _exit_code_for(exc)
        return 0

    jsonski_only = args.paths or args.stats
    if jsonski_only and args.engine != "jsonski":
        print("--paths/--stats require --engine jsonski", file=err)
        return 2

    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint", file=err)
        return 2
    if args.checkpoint is not None:
        if args.paths:
            print("--checkpoint does not support --paths", file=err)
            return 2
        if not args.jsonl and args.engine != "jsonski":
            print("--checkpoint on a single record requires --engine jsonski "
                  "(intra-record suspension)", file=err)
            return 2
        if not args.jsonl:
            # A suspended run's steps collect no stats, metrics or spans.
            for flag, given in (("--stats", args.stats), ("--metrics", args.metrics is not None),
                                ("--trace", args.trace is not None)):
                if given:
                    print(f"--checkpoint on a single record does not support {flag}", file=err)
                    return 2
        if args.jsonl and args.first:
            print("--checkpoint with --jsonl does not support --first", file=err)
            return 2

    try:
        data = _read_input(args.file)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=err)
        return 2

    # Observability wiring: a registry for --metrics, a JSONL-sinked
    # tracer for --trace.  Instrumented engines take both natively; for
    # the baselines the CLI records run-level counters itself below.
    registry = tracer = trace_sink = None
    from repro.registry import ENGINES as _ENGINES

    info = _ENGINES.info(args.engine)
    if args.metrics is not None:
        from repro.observe import MetricsRegistry

        registry = MetricsRegistry()
    if args.trace is not None:
        from repro.observe import JsonlSink, Tracer

        try:
            trace_sink = JsonlSink(err if args.trace == "-" else args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}", file=err)
            return 2
        tracer = Tracer(sink=trace_sink, keep=False)

    observe_kwargs = {}
    if info.instrumented:
        if registry is not None:
            observe_kwargs["metrics"] = registry
        if tracer is not None:
            observe_kwargs["tracer"] = tracer

    limits = _build_limits(args)
    if limits is not None:
        observe_kwargs["limits"] = limits

    try:
        from repro.registry import compile as compile_engine

        engine = compile_engine(args.query, engine=args.engine, collect_stats=args.stats, **observe_kwargs)

        if args.checkpoint is not None:
            stop, restore = _signal_stop()
            try:
                if args.jsonl:
                    return _run_checkpointed_records(
                        args, engine, data, info, registry, trace_sink, out, err, stop
                    )
                return _run_checkpointed_single(args, data, limits, out, err, stop)
            finally:
                restore()

        if args.lenient and args.jsonl and not args.paths:
            return _run_lenient(args, engine, data, info, registry, trace_sink, out, err)

        # Two-stage engines: build the reusable stage-1 index once, so
        # every view below (first / run / run_with_paths) is stage 2 only.
        # --index-cache routes stage 1 through the persistent sidecar:
        # a warm cache makes this line a load, not a build.
        if info.two_stage and not args.jsonl:
            record = engine.index(data, cache_dir=args.index_cache)
        else:
            record = data

        if args.first and info.early_terminating and not args.jsonl and not args.paths:
            match = engine.first(record)
            if match is not None:
                print(_render(match, args.raw), file=out)
            code = _finish_observability(args, info, registry, trace_sink, data,
                                         1 if match is not None else 0, err)
            return code or (0 if match is not None else 1)

        if args.jsonl:
            stream = RecordStream.from_jsonl(data)
            if args.paths:
                pairs = []
                for i in range(len(stream)):
                    try:
                        pairs.extend(engine.run_with_paths(stream.record(i)))
                    except ReproError as exc:
                        exc.record = i
                        raise
            else:
                matches = engine.run_records(stream)
        elif args.paths:
            pairs = engine.run_with_paths(record)
        else:
            matches = engine.run(record)
        # Decoded here, inside the try: a value that does not decode
        # fails the run before anything is printed.
        if args.paths:
            n = len(pairs)
            lines = [
                "$" + "".join(f"[{k!r}]" if isinstance(k, str) else f"[{k}]" for k in path)
                + f"\t{_render(match, args.raw)}"
                for path, match in pairs[: 1 if args.first else n]
            ]
        elif args.count:
            n = len(matches)
            lines = [str(n)]
        else:
            n = len(matches)
            lines = [_render(match, args.raw) for match in list(matches)[: 1 if args.first else n]]
    except (ReproError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        # A decode error is a matched slice (printed, or a filter
        # predicate's operand) that json.loads rejects — stage 2 does not
        # validate what it skips — so malformed input, exit 4; the
        # lenient paths report it as UndecodableMatch.
        undecodable = not isinstance(exc, ReproError)
        message = f"undecodable match: {exc}" if undecodable else exc
        failed = getattr(exc, "record", None)
        # A record's error position is relative to that record's bytes.
        where = data if failed is None else RecordStream.from_jsonl(data).record(failed)
        print(f"error: {message}" if failed is None else f"error: record {failed}: {message}", file=err)
        # JsonPathSyntaxError.position is an offset into the query, not
        # the input — a data caret would point at the wrong text.
        position = None if isinstance(exc, JsonPathSyntaxError) else getattr(exc, "position", None)
        if position is not None and position >= 0 and where:
            from repro.errors import format_error_context

            print(format_error_context(where, position), file=err)
        if registry is not None:
            registry.counter("cli.errors", error="UndecodableMatch" if undecodable else type(exc).__name__).add(1)
        # Flush --metrics/--trace even on failure: the error counters are
        # the part an operator most wants to scrape.
        _finish_observability(args, info, registry, trace_sink, data, 0, err)
        return 4 if undecodable else _exit_code_for(exc)

    if args.stats and info.instrumented:
        _print_stats(engine, err)

    code = _finish_observability(args, info, registry, trace_sink, data, n, err)
    if code:
        return code
    for line in lines:
        print(line, file=out)
    return 0 if n else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
