"""The ``repro`` command line — a reproducible front door to the analysis.

Six subcommands, all built on the unified analysis API:

``repro prove FILE``
    Run one registered prover on a mini-language program (``-`` reads
    stdin).  ``--json`` emits the full, exactly round-trippable
    :class:`~repro.api.result.AnalysisResult` document; ``--trace FILE``
    dumps the engine's event stream as JSON-lines.  Exit code: 0 proved
    terminating, 5 proved *non*-terminating (lasso witness attached), 2
    unknown, 1 error.

``repro list-provers``
    The prover registry: every stable tool name with its summary.

``repro check FILE | repro check --suite NAME``
    Prove a program (or a whole benchmark suite) with the pipeline's
    ``certificate`` stage forced on, and report its audit of every claim
    (:meth:`repro.api.Analysis.certify`): a ranking function re-verified
    by the independent Farkas checker, a lasso replayed by the
    recurrence checker.  Exit code: 0 every claim
    validated, 3 a certificate was rejected or missing (soundness!), 4 a
    check hit its budget (inconclusive), 2 nothing proved (file mode),
    1 error.

``repro fuzz``
    Seeded differential campaign: generate random programs, run every
    requested prover on each, audit every certificate, flag soundness
    violations (with shrunk reproducers).  Exit code: 0 clean, 1
    violations or generator failures.

``repro table1``
    Regenerate the paper's Table 1 over the bundled benchmark suites
    through the parallel engine (the same engine CI runs; also reachable
    as ``python benchmarks/table1.py``).

``repro bench``
    The performance micro-suite: a simplex batch, pruned
    Fourier–Motzkin, a Table-1 WTC slice and the CEGIS ablations,
    written to ``BENCH_kernel.json`` (also reachable as
    ``python benchmarks/perf_kernel.py``).

Installed as a console script (``pip install -e .``) and always available
as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from repro.api import (
    AnalysisConfig,
    AnalysisRequest,
    CEX_ORACLES,
    CEX_STRATEGIES,
    ConfigError,
    NONTERM_MODES,
    RequestError,
    analyze,
    analyze_many,
    canonical_name,
    prover_capabilities,
    prover_summaries,
)


# ---------------------------------------------------------------------------
# repro prove
# ---------------------------------------------------------------------------


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags mirroring the :class:`AnalysisConfig` fields, all optional."""
    group = parser.add_argument_group(
        "analysis configuration",
        "defaults come from AnalysisConfig (or --config when given); "
        "explicit flags win",
    )
    group.add_argument(
        "--config",
        metavar="FILE",
        default=None,
        help="load an AnalysisConfig JSON document (as written by "
        "AnalysisConfig.to_json) and use it as the baseline",
    )
    group.add_argument(
        "--oracle",
        dest="cex_oracle",
        choices=list(CEX_ORACLES),
        default=None,
        help="counterexample oracle of the CEGIS engine (default: smt, "
        "the paper's optimising extremal-point query)",
    )
    group.add_argument(
        "--cex-strategy",
        choices=list(CEX_STRATEGIES),
        default=None,
        help="counterexample selection strategy (default: extremal; "
        "'arbitrary' is the paper's ablation)",
    )
    group.add_argument("--max-iterations", type=int, metavar="N", default=None)
    group.add_argument("--max-dimension", type=int, metavar="N", default=None)
    group.add_argument(
        "--nonterm",
        choices=list(NONTERM_MODES),
        default=None,
        help="nontermination analysis: 'off' (default), 'auto' "
        "(recurrence-set synthesis when termination is not proved) or 'only'",
    )
    group.add_argument(
        "--integer-mode",
        action="store_true",
        default=None,
        help="let the certificate check tighten strict inequalities "
        "over integer variables (synthesis is rational either way)",
    )
    group.add_argument(
        "--no-certificates",
        action="store_true",
        help="skip the independent certificate check",
    )


def _config_from_arguments(arguments: argparse.Namespace) -> AnalysisConfig:
    if arguments.config:
        with open(arguments.config) as handle:
            config = AnalysisConfig.from_json(handle.read())
    else:
        config = AnalysisConfig()
    overrides = {}
    for field in (
        "cex_oracle",
        "cex_strategy",
        "max_iterations",
        "max_dimension",
        "nonterm",
        "integer_mode",
    ):
        value = getattr(arguments, field)
        if value is not None:
            overrides[field] = value
    if arguments.no_certificates:
        overrides["check_certificates"] = False
    return config.replace(**overrides)


def _read_program(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def command_prove(arguments: argparse.Namespace) -> int:
    try:
        tool = canonical_name(arguments.tool)
    except KeyError as error:
        print("error: %s" % error.args[0], file=sys.stderr)
        return 1
    try:
        config = _config_from_arguments(arguments)
    except (ConfigError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    try:
        source = _read_program(arguments.file)
    except OSError as error:
        print("error: cannot read %s: %s" % (arguments.file, error), file=sys.stderr)
        return 1

    name = arguments.name or (
        "stdin" if arguments.file == "-" else arguments.file
    )
    # The same request object the JSON-RPC service constructs: there is
    # exactly one request schema across every front door.
    try:
        request = AnalysisRequest(
            program=source, tool=tool, config=config, name=name
        )
    except RequestError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    # The trace stream is opened *before* the engine runs and every event
    # is written and flushed as it happens, inside a context manager.  An
    # engine exception therefore still leaves a closed file of complete,
    # individually parseable JSON lines — buffering the events and dumping them after ``analyze`` returned
    # used to leak the handle and truncate the last line on a crash.
    trace_handle = None
    if arguments.trace:
        try:
            trace_handle = open(arguments.trace, "w")
        except OSError as error:
            print(
                "error: cannot write %s: %s" % (arguments.trace, error),
                file=sys.stderr,
            )
            return 1

    def _write_trace_event(event) -> None:
        trace_handle.write(
            json.dumps(
                {
                    "kind": event.kind,
                    "component": event.component,
                    "iteration": event.iteration,
                    "payload": event.payload,
                },
                default=str,
                sort_keys=True,
            )
        )
        trace_handle.write("\n")
        trace_handle.flush()

    engine_observers = [_write_trace_event] if trace_handle is not None else []
    try:
        with trace_handle if trace_handle is not None else contextlib.nullcontext():
            result = analyze(request, engine_observers=engine_observers)
    except Exception as error:  # surface a parse/analysis failure as exit 1
        print("error: %s: %s" % (type(error).__name__, error), file=sys.stderr)
        return 1

    if arguments.json:
        print(result.to_json(indent=2))
    else:
        print("program            : %s" % result.program)
        print("tool               : %s" % result.tool)
        print("status             : %s" % result.status.value)
        if result.ranking is not None:
            print("ranking function   : %s" % result.ranking.pretty())
            print("dimension          : %d" % result.dimension)
        if result.lasso is not None:
            print("lasso witness      : %s" % result.lasso.describe())
        if result.certificate_checked:
            print("certificate        : checked")
        if result.message:
            print("note               : %s" % result.message)
        print("time               : %.1f ms" % (result.time_seconds * 1000.0))
        for stage in result.stages:
            print("  %-16s : %.1f ms" % (stage.name, stage.seconds * 1000.0))
        statistics = result.lp_statistics
        if statistics.instances:
            print(
                "LP                 : %d instances, avg (%.1f, %.1f), "
                "%d pivots (%d warm / %d cold solves)"
                % (
                    statistics.instances,
                    statistics.average_rows,
                    statistics.average_cols,
                    statistics.pivots,
                    statistics.warm_solves,
                    statistics.cold_solves,
                )
            )
    if result.status.value == "error":
        return 1
    if result.disproved:
        return 5
    return 0 if result.proved else 2


# ---------------------------------------------------------------------------
# repro check
# ---------------------------------------------------------------------------


def _report_row(result) -> dict:
    """One ``repro check`` row, read from the result's certificate stage."""
    from repro.checking.checker import CertificateVerdict

    if result.status.value in ("error", "timeout"):
        return {
            "program": result.program,
            "tool": result.tool,
            "status": result.status.value,
            "error": result.error,
            "verdict": None,
        }
    verdict = result.details.get(
        "certificate_verdict", result.details.get("lasso_verdict")
    )
    return {
        "program": result.program,
        "tool": result.tool,
        "status": result.status.value,
        "dimension": result.dimension,
        "verdict": verdict,
        "missing_certificate": verdict is not None
        and CertificateVerdict.from_dict(verdict).certificate_missing,
    }


def command_check(arguments: argparse.Namespace) -> int:
    from repro.benchsuite import get_suite, suite_names

    try:
        tool = canonical_name(arguments.tool)
        config = _config_from_arguments(arguments)
    except KeyError as error:
        print("error: %s" % error.args[0], file=sys.stderr)
        return 1
    except (ConfigError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    # The audit is the pipeline's certificate stage: always on here.
    config = config.replace(check_certificates=True)

    if arguments.suite and arguments.file:
        print(
            "error: give either a FILE or --suite, not both",
            file=sys.stderr,
        )
        return 1

    jobs: list = []  # (name, source-or-benchmark)
    if arguments.suite:
        suites = (
            suite_names()
            if "all" in arguments.suite
            else list(dict.fromkeys(arguments.suite))
        )
        try:
            for suite in suites:
                for program in get_suite(suite):
                    jobs.append(("%s/%s" % (suite, program.name), program))
        except KeyError as error:
            print("error: %s" % error.args[0], file=sys.stderr)
            return 1
    elif arguments.file:
        try:
            jobs.append((arguments.file, _read_program(arguments.file)))
        except OSError as error:
            print(
                "error: cannot read %s: %s" % (arguments.file, error),
                file=sys.stderr,
            )
            return 1
    else:
        print("error: give a FILE or at least one --suite", file=sys.stderr)
        return 1

    # Each program runs through the crash-isolated engine when --jobs or
    # --timeout ask for it (it stays inline otherwise), so one
    # pathological program costs its budget, not the sweep.
    results = analyze_many(
        [program for _, program in jobs],
        [tool],
        config,
        names=[name for name, _ in jobs],
        jobs=arguments.jobs,
        timeout=arguments.timeout,
    )

    rows = []
    rejected = proved = validated = inconclusive = errors = missing = 0
    disproved = 0
    for result in results:
        row = _report_row(result)
        rows.append(row)
        if row["status"] in ("error", "timeout"):
            errors += 1
            continue
        if row["status"] == "terminating":
            proved += 1
        if row["status"] == "nonterminating":
            disproved += 1
        verdict = row["verdict"]
        if row["missing_certificate"]:
            missing += 1
        elif verdict is not None:
            if verdict["status"] == "valid":
                validated += 1
            elif verdict["status"] == "invalid":
                rejected += 1
            else:
                inconclusive += 1

    if arguments.json:
        print(
            json.dumps(
                {
                    "tool": tool,
                    "programs": rows,
                    "totals": {
                        "programs": len(rows),
                        "proved": proved,
                        "disproved": disproved,
                        "errors": errors,
                        "certificates_valid": validated,
                        "certificates_rejected": rejected,
                        "certificates_inconclusive": inconclusive,
                        "missing_certificates": missing,
                    },
                },
                indent=2,
            )
        )
    else:
        for row in rows:
            verdict = row["verdict"]
            if row.get("missing_certificate"):
                note = verdict["failures"][0]["case"] + "!"
            elif verdict is None:
                note = row.get("error") or "no certificate to check"
            else:
                note = "certificate %s (%d/%d obligations refuted)" % (
                    verdict["status"],
                    verdict["refuted"],
                    verdict["obligations"],
                )
            print(
                "%-36s %-12s %s" % (row["program"], row["status"], note)
            )
        print(
            "%d programs: %d proved, %d disproved, %d errors, "
            "%d certificates valid, %d rejected, %d missing, "
            "%d inconclusive"
            % (
                len(rows), proved, disproved, errors, validated, rejected,
                missing, inconclusive,
            )
        )

    # Exit contract: an unsound or unauditable claim (rejected or
    # missing certificate) dominates; then analysis errors; then
    # "checked but could not conclude"; file mode additionally signals
    # "nothing proved".
    if rejected or missing:
        return 3
    if errors:
        return 1
    if inconclusive:
        return 4
    if arguments.file and not arguments.suite and not proved and not disproved:
        return 2
    return 0


# ---------------------------------------------------------------------------
# repro fuzz
# ---------------------------------------------------------------------------


def command_fuzz(arguments: argparse.Namespace) -> int:
    from repro.checking.differential import default_fuzz_config, fuzz

    tools = None
    if arguments.tool:
        try:
            tools = [canonical_name(tool) for tool in arguments.tool]
        except KeyError as error:
            print("error: %s" % error.args[0], file=sys.stderr)
            return 1

    def verbose_progress(position, audit):
        print(
            "[%4d] %-28s %s"
            % (
                position,
                audit.name,
                " ".join(
                    "%s=%s" % (r.tool, r.status.value[:4])
                    for r in audit.results
                ),
            ),
            file=sys.stderr,
        )

    progress = verbose_progress if arguments.verbose else None

    config = default_fuzz_config()

    report = fuzz(
        seed=arguments.seed,
        count=arguments.count,
        tools=tools,
        config=config,
        shrink=not arguments.no_shrink,
        jobs=arguments.jobs,
        timeout=arguments.timeout,
        progress=progress,
    )

    print(report.summary())
    for violation in report.violations:
        print()
        print(
            "VIOLATION %s: %s on %s (reproduce: seed=%s index=%s)"
            % (
                violation.kind,
                violation.tool,
                violation.program,
                violation.seed,
                violation.index,
            )
        )
        print(violation.detail)
        print(violation.source)
    for error in report.build_errors:
        print("BUILD ERROR %s" % error)

    if arguments.json_path:
        try:
            with open(arguments.json_path, "w") as handle:
                json.dump(report.to_dict(), handle, indent=2)
                handle.write("\n")
        except OSError as error:
            print("error: cannot write %s: %s" % (arguments.json_path, error))
            return 1
        print("wrote %s" % arguments.json_path)

    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------


def command_serve(arguments: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ServiceServer, serve_stdio

    if arguments.stdio == (arguments.port is not None):
        print("error: give exactly one of --stdio or --port", file=sys.stderr)
        return 1
    common = dict(
        cache=not arguments.no_cache,
        cache_entries=arguments.cache_entries,
        revalidate=not arguments.no_revalidate,
        max_program_bytes=arguments.max_program_bytes,
        cache_dir=arguments.cache_dir,
        cache_disk_bytes=arguments.cache_disk_bytes,
    )
    if arguments.stdio:
        return serve_stdio(timeout=arguments.timeout, **common)

    server = ServiceServer(
        host=arguments.host,
        port=arguments.port,
        jobs=arguments.jobs,
        timeout=arguments.timeout,
        max_inflight=arguments.max_inflight,
        max_queue=arguments.max_queue,
        fault_plan=arguments.fault_plan,
        **common,
    )

    async def _serve() -> None:
        port = await server.start()
        # Parsed by clients started with --port 0 (tests, CI smoke).
        print("listening on %s:%d" % (arguments.host, port), flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.service.cache import DEFAULT_MAX_DISK_BYTES, DEFAULT_MAX_ENTRIES
    from repro.service.protocol import DEFAULT_MAX_PROGRAM_BYTES

    door = parser.add_argument_group("front door (give exactly one)")
    door.add_argument(
        "--stdio",
        action="store_true",
        help="speak newline-delimited JSON-RPC over stdin/stdout "
        "(inline, single process)",
    )
    door.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="listen on TCP port N (0 picks a free port, printed as "
        "'listening on HOST:PORT') and dispatch onto the pre-forked "
        "worker pool",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address of the socket server (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="resident crash-isolated worker processes (default: 2)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock budget; an over-budget request gets "
        "a JSON-RPC timeout error and its worker is respawned "
        "(default: none)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache "
        "(every response carries provenance.cache = 'bypass')",
    )
    parser.add_argument(
        "--no-revalidate",
        action="store_true",
        help="serve cache hits without the independent checker pass "
        "(NOT recommended; the revalidation guarantee is the point)",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=DEFAULT_MAX_ENTRIES,
        metavar="N",
        help="LRU bound on resident cache entries (default: %d)"
        % DEFAULT_MAX_ENTRIES,
    )
    parser.add_argument(
        "--max-program-bytes",
        type=int,
        default=DEFAULT_MAX_PROGRAM_BYTES,
        metavar="B",
        help="reject programs larger than B bytes with a "
        "PROGRAM_TOO_LARGE error (default: %d)" % DEFAULT_MAX_PROGRAM_BYTES,
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the result cache to DIR (one checksummed JSON file "
        "per key, atomically written); a restarted server serves warm "
        "traffic from it after checker revalidation (default: memory only)",
    )
    parser.add_argument(
        "--cache-disk-bytes",
        type=int,
        default=DEFAULT_MAX_DISK_BYTES,
        metavar="B",
        help="LRU byte bound of the --cache-dir tier (default: %d)"
        % DEFAULT_MAX_DISK_BYTES,
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission gate: concurrent computes before requests queue "
        "(default: --jobs)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="admission gate: queued requests before load is shed with "
        "the OVERLOADED error (default: 4x --jobs)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help=argparse.SUPPRESS,  # chaos testing only: "seedN[:kill=P,...]"
    )


# ---------------------------------------------------------------------------
# repro bench (also the engine behind benchmarks/perf_kernel.py)
# ---------------------------------------------------------------------------


def command_bench(arguments: argparse.Namespace) -> int:
    from repro.reporting.perf import merge_bench_documents, run_suite

    started = time.perf_counter()
    try:
        document = run_suite(
            quick=arguments.quick,
            seed=arguments.seed,
            suites=arguments.suites or None,
        )
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started

    # A partial run (explicit suite selection) folds into the existing
    # trajectory file instead of clobbering the other suites' numbers.
    if arguments.suites and arguments.json_path and arguments.json_path != "-":
        try:
            with open(arguments.json_path) as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = None
        if previous is not None:
            document = merge_bench_documents(previous, document)

    for suite in document["suites"]:
        extras = " ".join(
            "%s=%s" % (key, value)
            for key, value in suite.items()
            if key not in ("suite", "wall_seconds")
        )
        print("%-12s %8.3fs  %s" % (suite["suite"], suite["wall_seconds"], extras))
    print(
        "%d suites, %.3fs measured (%.1fs wall)%s"
        % (
            len(document["suites"]),
            document["total_wall_seconds"],
            elapsed,
            " [quick]" if arguments.quick else "",
        )
    )

    if arguments.json_path and arguments.json_path != "-":
        try:
            with open(arguments.json_path, "w") as handle:
                json.dump(document, handle, indent=2)
                handle.write("\n")
        except OSError as error:
            print(
                "error: cannot write %s: %s" % (arguments.json_path, error),
                file=sys.stderr,
            )
            return 1
        print("wrote %s" % arguments.json_path)
    return 0


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.reporting.perf import SUITE_RUNNERS

    parser.add_argument(
        "suites",
        nargs="*",
        metavar="SUITE",
        help="suites to run (default: the four default suites; 'service' "
        "measures the resident front door).  A partial selection merges "
        "into the existing JSON report instead of replacing it.  "
        "Choices: %s" % ", ".join(sorted(SUITE_RUNNERS)),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller suite sizes (the CI perf-smoke configuration)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the randomised suites (default: 0)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default="BENCH_kernel.json",
        metavar="OUT",
        help="where to write the machine-readable report "
        "(default: BENCH_kernel.json; '-' prints only)",
    )


def bench_main(argv=None) -> int:
    """Standalone entry point (used by ``benchmarks/perf_kernel.py``)."""
    parser = argparse.ArgumentParser(
        description="Run the performance micro-suite.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_bench_arguments(parser)
    return command_bench(parser.parse_args(argv))


# ---------------------------------------------------------------------------
# repro list-provers
# ---------------------------------------------------------------------------


def command_list_provers(arguments: argparse.Namespace) -> int:
    summaries = prover_summaries()
    capabilities = prover_capabilities()
    if arguments.json:
        print(
            json.dumps(
                {"provers": summaries, "capabilities": capabilities}, indent=2
            )
        )
        return 0
    width = max(len(name) for name in summaries)
    for name, summary in summaries.items():
        print("%-*s  %s" % (width, name, summary))
        flags = capabilities.get(name)
        if flags:
            print("%-*s    capabilities: %s" % (width, "", ", ".join(flags)))
    return 0


# ---------------------------------------------------------------------------
# repro table1 (also the engine behind benchmarks/table1.py)
# ---------------------------------------------------------------------------


def add_table1_arguments(parser: argparse.ArgumentParser) -> None:
    # Imported here, not at module level: the suites materialise their
    # program sources at import time, which `import repro.cli` should not pay.
    from repro.benchsuite import suite_names

    parser.add_argument(
        "--suite",
        action="append",
        choices=suite_names(),
        help="suite(s) to run (default: all four)",
    )
    parser.add_argument(
        "--tool",
        action="append",
        metavar="TOOL",
        help="tool(s) to run, by registry name (default: termite and "
        "heuristic; see `repro list-provers`)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="only run the first N programs of each suite",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --limit 5",
    )
    parser.add_argument(
        "--filter",
        dest="name_filter",
        default=None,
        metavar="SUBSTRING",
        help="only run programs whose name contains SUBSTRING "
        "(an empty selection produces an empty table row, not an error)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run N programs concurrently in crash-isolated worker "
        "processes (default: 1, inline)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-program wall-clock budget covering all requested tools "
        "(the problem build is shared across them); a program over budget "
        "is killed and recorded as failed (default: no timeout)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="OUT",
        help="also write the machine-readable run summary to OUT "
        "(schema_version 2; consumed by the CI benchmark smoke job)",
    )


def command_table1(arguments: argparse.Namespace) -> int:
    from repro.benchsuite import get_suite, suite_names
    from repro.reporting import (
        format_table,
        reports_to_json_dict,
        run_table1,
    )
    from repro.reporting.table import TABLE1_HEADERS, format_table1_row

    suites = arguments.suite or suite_names()
    tools = arguments.tool or ["termite", "heuristic"]
    try:
        tools = [canonical_name(tool) for tool in tools]
    except KeyError as error:
        print("error: %s" % error.args[0], file=sys.stderr)
        return 2
    limit = 5 if arguments.quick and arguments.limit is None else arguments.limit

    started = time.perf_counter()
    reports = run_table1(
        {suite: get_suite(suite) for suite in suites},
        tools,
        limit=limit,
        jobs=arguments.jobs,
        timeout=arguments.timeout,
        name_filter=arguments.name_filter,
    )
    elapsed = time.perf_counter() - started

    rows = [format_table1_row(report) for report in reports]
    print(format_table(TABLE1_HEADERS, rows))
    print()
    document = reports_to_json_dict(
        reports,
        meta={
            "suites": list(suites),
            "tools": list(tools),
            "limit": limit,
            "filter": arguments.name_filter,
            "jobs": arguments.jobs,
            "timeout": arguments.timeout,
            "wall_seconds": round(elapsed, 3),
        },
    )
    totals = document["totals"]
    sharing = totals["problem_sharing"]
    print(
        "%d programs, %d proved, %d failed (%d timeouts), %d unsound | "
        "%d simplex pivots (%d warm / %d cold solves) | "
        "%.2fs problem-build wall-clock saved (%d rebuilds avoided) | "
        "jobs=%d wall=%.1fs"
        % (
            totals["programs"],
            totals["successes"],
            totals["failures"],
            totals["timeouts"],
            totals["unsound"],
            totals["total_pivots"],
            totals["warm_solves"],
            totals["cold_solves"],
            sharing["seconds_saved"],
            sharing["rebuilds_avoided"],
            arguments.jobs,
            elapsed,
        )
    )

    if arguments.json_path:
        try:
            with open(arguments.json_path, "w") as handle:
                json.dump(document, handle, indent=2)
                handle.write("\n")
        except OSError as error:
            print("error: cannot write %s: %s" % (arguments.json_path, error))
            return 2
        print("wrote %s" % arguments.json_path)

    return 1 if totals["unsound"] else 0


def table1_main(argv=None) -> int:
    """Standalone Table-1 entry point (used by ``benchmarks/table1.py``)."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's Table 1 over the bundled suites.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_table1_arguments(parser)
    return command_table1(parser.parse_args(argv))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    prove = subparsers.add_parser(
        "prove",
        help="prove termination of one mini-language program",
        description="Run one registered prover on a program file "
        "('-' reads stdin).  Exit code: 0 proved terminating, 5 proved "
        "nonterminating, 2 unknown, 1 error.",
    )
    prove.add_argument("file", help="program file, or '-' for stdin")
    prove.add_argument(
        "--tool",
        default="termite",
        metavar="TOOL",
        help="registry name of the prover (default: termite; "
        "see `repro list-provers`)",
    )
    prove.add_argument(
        "--name", default=None, help="program name used in the result"
    )
    prove.add_argument(
        "--json",
        action="store_true",
        help="emit the full AnalysisResult as JSON (exactly round-trippable "
        "via AnalysisResult.from_json)",
    )
    prove.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="dump the engine's CegisEvent stream (termination and "
        "nontermination events) to FILE as JSON-lines",
    )
    _add_config_arguments(prove)
    prove.set_defaults(handler=command_prove)

    list_provers = subparsers.add_parser(
        "list-provers",
        help="list the registered provers",
        description="Every stable registry name with its summary.",
    )
    list_provers.add_argument("--json", action="store_true")
    list_provers.set_defaults(handler=command_list_provers)

    check = subparsers.add_parser(
        "check",
        help="independently re-verify ranking-function certificates",
        description="Prove a program (or whole benchmark suites with "
        "--suite) and re-check every claimed ranking function with the "
        "independent exact-rational Farkas checker.  Exit code: 0 all "
        "claims validated, 3 a certificate was rejected or a claim had "
        "none, 4 a check was inconclusive (budget), 2 nothing proved "
        "(file mode), 1 error.",
    )
    check.add_argument(
        "file",
        nargs="?",
        default=None,
        help="program file, or '-' for stdin (omit when using --suite)",
    )
    check.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help="check a bundled benchmark suite instead of a file "
        "(repeatable; 'all' for every suite)",
    )
    check.add_argument(
        "--tool",
        default="termite",
        metavar="TOOL",
        help="registry name of the prover whose certificates to audit "
        "(default: termite)",
    )
    check.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="check N programs concurrently in crash-isolated workers",
    )
    check.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-program budget (prove + audit); an over-budget "
        "program is recorded as a timeout and counts as an error",
    )
    check.add_argument("--json", action="store_true")
    _add_config_arguments(check)
    check.set_defaults(handler=command_check)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing with independent certificate audit",
        description="Generate seeded random programs, run every "
        "requested prover on each, audit every claimed certificate and "
        "cross-check verdicts against constructed ground truth.  Exit "
        "code: 0 clean, 1 soundness violations or generator failures.",
    )
    fuzz.add_argument("--seed", type=int, default=0, metavar="N")
    fuzz.add_argument(
        "--count",
        type=int,
        default=100,
        metavar="N",
        help="number of programs to generate (default: 100)",
    )
    fuzz.add_argument(
        "--tool",
        action="append",
        default=None,
        metavar="TOOL",
        help="tool(s) to cross-examine (repeatable; default: every "
        "registered prover)",
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="audit N programs concurrently in crash-isolated workers",
    )
    fuzz.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-program budget covering all tools (runs through the "
        "crash-isolated engine; default: none)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violations without shrinking the reproducer",
    )
    fuzz.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="OUT",
        help="also write the machine-readable fuzz report to OUT",
    )
    fuzz.add_argument(
        "--verbose",
        action="store_true",
        help="print one line per program to stderr as the campaign runs",
    )
    fuzz.set_defaults(handler=command_fuzz)

    table1 = subparsers.add_parser(
        "table1",
        help="regenerate the paper's Table 1 over the bundled suites",
        description="Run every requested (suite, tool) cell through the "
        "crash-isolated parallel engine.",
    )
    add_table1_arguments(table1)
    table1.set_defaults(handler=command_table1)

    bench = subparsers.add_parser(
        "bench",
        help="run the performance micro-suite",
        description="Measure the exact simplex, pruned Fourier-Motzkin "
        "projection, a Table-1 WTC slice and the CEGIS ablations; write "
        "the trajectory to BENCH_kernel.json.",
    )
    add_bench_arguments(bench)
    bench.set_defaults(handler=command_bench)

    serve = subparsers.add_parser(
        "serve",
        help="run the resident analysis service (JSON-RPC over stdio or TCP)",
        description="Keep the analysis pipeline resident and serve "
        "newline-delimited JSON-RPC 2.0 requests, with a "
        "content-addressed result cache whose hits are re-validated by "
        "the independent certificate checker before serving.  See "
        "docs/SERVICE.md for the protocol reference.",
    )
    add_serve_arguments(serve)
    serve.set_defaults(handler=command_serve)

    return parser


def main(argv=None) -> int:
    arguments = build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":
    sys.exit(main())
