#!/usr/bin/env python3
"""Corpus benchmark of the ``termite`` analysis, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload nested_loops --seed 0 --seconds 30 --trace 0

Each workload is a single-process closed loop (``jobs=1``): one program at
a time through the public :class:`repro.Analysis` API with tool
``termite``, the next program after the previous verdict.  With
``--trace 0`` the run repeats whole passes over the workload while they
fit in ``--seconds`` (at least two) and reports the end-to-end metrics.
With ``--trace 1`` it makes one untraced and one traced pass and reports
the per-layer metrics and the tracing overhead.  Every verdict then goes
through the gate of :mod:`gate`, outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  The exit code is 1 when a verdict is unsound,
2 when ``src/repro`` is not next to this directory, 3 when the tracer's
own consistency checks fail.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread, in this process and the set-up probes it starts: the
# analysis makes no BLAS calls, and starting a pool of BLAS threads made
# importing numpy take 0.05 s or 0.15 s depending on the other core's load.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_name] = "1"

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7

#: The yardstick of ``setup_s``: modules ``repro`` does not own, imported
#: by a fresh interpreter right after each set-up sample.  A slow stretch
#: of the machine stretches both imports alike, so their ratio holds.
REFERENCE_IMPORTS = (
    "numpy, json, decimal, fractions, argparse, dataclasses, typing, inspect, "
    "email.parser, http.client, unittest, xml.dom.minidom, asyncio, logging, "
    "tarfile, csv"
)

#: Seconds the reference imports take on the reference machine (2-core
#: x86-64, Python 3.11) at full speed; ``setup_s`` is the median ratio of
#: set-up to reference imports, times this.
REFERENCE_IMPORT_S = 0.09

#: Untraced passes per run at the least, whatever ``--seconds`` says:
#: per-program times are the fastest of the passes.
MIN_PASSES = 2

#: Largest share of the traced wall time that may fall in no layer span
#: (measured: 0.1-0.4%).
UNATTRIBUTED_SHARE = 0.03


def parse_args(argv=None) -> argparse.Namespace:
    import corpus

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--count",
        type=int,
        default=corpus.GENERATED_COUNT,
        help="programs per pass of the generated workload",
    )
    parser.add_argument(
        "--gen-seed",
        type=int,
        default=0,
        help="ProgramGenerator seed of the generated workload",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite perfbench/baseline/<workload>.json from this run",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def locate_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            "perfbench: %s/repro not found; run from a checkout of the repository\n"
            % SRC
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# -- set-up -------------------------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> None:
    """Time importing ``repro`` and materialising the inputs; print seconds."""
    import corpus

    started = time.perf_counter()
    import repro  # noqa: F401  (the import is what is timed)

    corpus.materialise(args.workload, args.seed, args.count, args.gen_seed)
    print(repr(time.perf_counter() - started))


def measure_setup(args: argparse.Namespace) -> list:
    """``(set-up seconds, reference seconds)`` pairs, each in fresh interpreters."""
    probe = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--count",
        str(args.count),
        "--gen-seed",
        str(args.gen_seed),
    ]
    reference = [
        sys.executable,
        "-c",
        "import time\n"
        "started = time.perf_counter()\n"
        "import %s\n"
        "print(repr(time.perf_counter() - started))" % REFERENCE_IMPORTS,
    ]
    return [(_timed(probe), _timed(reference)) for _ in range(SETUP_SAMPLES)]


def _timed(command) -> float:
    """The seconds a probe subprocess prints as its last line."""
    done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# -- the closed loop ------------------------------------------------------------------------


def calibration_seconds() -> float:
    """Seconds a fixed pure-Python integer loop takes at this moment.

    The machine's speed drifts under load from other tenants; this loop,
    which shares no code with ``repro``, slows down with it.  The garbage
    collector is off while it runs, so the size of the heap ``repro``
    leaves behind does not change its time.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for value in range(20000):
            total += value * value
        return time.perf_counter() - started
    finally:
        gc.enable()


class Pass:
    """One pass over the workload: per-program seconds and outcomes."""

    def __init__(self):
        self.wall = 0.0
        self.seconds = []
        self.calibration = []  # per program: the loop's seconds around it
        self.outcomes = []  # (item, analysis, result or exception)
        self.results = []  # the outcomes' results, once gated

    def settle(self, gate) -> None:
        """Gate every verdict, then drop the analyses (outside the timed region).

        Dropping them keeps the next pass from running with a heap that
        grows with every pass before it.
        """
        for outcome in self.outcomes:
            gate.check(*outcome)
        self.results = [result for _, _, result in self.outcomes]
        self.outcomes = []


def run_pass(items, config, tracer=None) -> Pass:
    from repro import Analysis

    observers = (tracer.stage_observer(),) if tracer is not None else ()
    current = Pass()
    pass_started = time.perf_counter()
    for item in items:
        before = calibration_seconds()
        token = tracer.enter("program") if tracer is not None else None
        started = time.perf_counter()
        analysis = Analysis(item.source, config=config, name=item.name, observers=observers)
        try:
            result = analysis.run("termite")
        except Exception as error:  # counted as failed, the loop goes on
            result = error
        elapsed = time.perf_counter() - started
        if token is not None:
            tracer.exit(token)
        current.seconds.append(elapsed)
        current.calibration.append((before + calibration_seconds()) / 2)
        current.outcomes.append((item, analysis, result))
    current.wall = time.perf_counter() - pass_started
    return current


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- reporting --------------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = "%.6g" % value if isinstance(value, float) else str(value)
        print("  %-36s %14s %-6s %s" % (name, shown, unit, note))


def end_to_end(setup, passes, gate, rss) -> dict:
    """Every end-to-end metric, in report order, as ``name -> (value, unit, note)``."""
    # Each program at its fastest of the run's passes: the passes are
    # spread over the run, so a burst of load from other tenants of the
    # machine rarely hits every sample of a program.
    per_program = [min(times) for times in zip(*(p.seconds for p in passes))]
    per_program_cal = [
        min(ratios)
        for ratios in zip(
            *([t / c for t, c in zip(p.seconds, p.calibration)] for p in passes)
        )
    ]
    counts = gate.counts()
    walls = [p.wall for p in passes]
    samples = len(per_program)
    return {
        "setup_s": (
            statistics.median(own / reference for own, reference in setup)
            * REFERENCE_IMPORT_S,
            "s",
            "at reference speed: median over %d fresh interpreters" % len(setup),
        ),
        "setup_raw_s": (
            statistics.median(own for own, _ in setup),
            "s",
            "as measured: median over the same interpreters",
        ),
        "wall_s": (
            sum(per_program),
            "s",
            "one pass, each program at its fastest of %d passes" % len(walls),
        ),
        "wall_cal": (
            sum(per_program_cal),
            "cal",
            "wall_s in calibration loops, each program at its lowest ratio",
        ),
        "pass_wall_s": (statistics.median(walls), "s", "median pass wall clock"),
        "program_p50_s": (statistics.median(per_program), "s", "%d programs" % samples),
        "program_p90_s": (
            percentile_90(per_program),
            "s",
            "%d programs, %d beyond p90" % (samples, samples - int(0.9 * samples)),
        ),
        "proved": (counts["proved"], "count", "TERMINATING, both checkers valid"),
        "disproved": (counts["disproved"], "count", "NONTERMINATING, lasso valid"),
        "decided": (counts["proved"] + counts["disproved"], "count", "proved + disproved"),
        "unknown": (counts["unknown"], "count", ""),
        "failed": (counts["failed"], "count", "of %d programs attempted" % samples),
        "unverified": (counts["unverified"], "count", "claims not validated"),
        "unsound": (counts["unsound"], "count", "must be 0"),
        "peak_rss_mb": (rss, "MB", "after the first pass"),
    }


#: The end-to-end metrics in the JSON line: never zero, and steady enough
#: between runs on a shared machine for a bound of at most 0.25.  Raw
#: seconds and the per-program percentiles spread wider than that (see
#: README.md) and stay in the report.
JSON_END_TO_END = ("setup_s", "wall_cal", "proved", "decided", "peak_rss_mb")


def layer_metrics(tracer, results, traced: Pass, untraced: Pass, sites, config) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    from repro.api.pipeline import STAGES

    spans = tracer.totals()
    counts = tracer.counters()

    def calls(*keys):
        return sum(int(spans.get(key, (0, 0.0, 0.0))[0]) for key in keys)

    def own(*keys):
        return sum(spans.get(key, (0, 0.0, 0.0))[2] for key in keys)

    def total(*keys):
        return sum(spans.get(key, (0, 0.0, 0.0))[1] for key in keys)

    out = {}
    for stage in STAGES:
        out["stage.%s_s" % stage] = (
            sum(result.stage_seconds(stage) for result in results),
            "s",
        )
    theory_calls = calls("smt.theory")
    out.update(
        {
            "smt.sat.calls": (calls("smt.sat"), "count"),
            "smt.sat_s": (own("smt.sat"), "s"),
            "smt.theory.calls": (theory_calls, "count"),
            "smt.theory_s": (own("smt.theory"), "s"),
            "smt.theory.conflicts": (counts.get("smt.theory.conflicts", 0), "count"),
            "smt.theory.conflict_ratio": (
                counts.get("smt.theory.conflicts", 0) / theory_calls if theory_calls else 0.0,
                "ratio",
            ),
            "smt.core.lps": (calls("smt.core"), "count"),
            "smt.core_s": (own("smt.core"), "s"),
            "smt.omt.calls": (calls("smt.omt"), "count"),
            "smt.omt_s": (own("smt.omt"), "s"),
            "smt.solvers_built": (calls("smt.build"), "count"),
            "smt.encode_s": (own("smt.build", "smt.encode"), "s"),
            "oracle.calls": (calls("oracle"), "count"),
            "oracle.exhausted": (counts.get("oracle.exhausted", 0), "count"),
            "oracle_s": (own("oracle"), "s"),
            "synthesis.components": (calls("cegis"), "count"),
            "cegis_s": (own("cegis"), "s"),
            "lp.solve_lp.calls": (calls("lp.solve_lp", "certificate.lp.solve_lp"), "count"),
            "lp.solve_lp_s": (own("lp.solve_lp", "certificate.lp.solve_lp"), "s"),
        }
    )
    for owner in ("theory", "omt", "polyhedra", "certificate", "ilp", "build", "other"):
        key = "lp.solve_lp." + owner
        out[key + ".calls"] = (calls(key), "count")
        out[key + "_s"] = (total(key), "s")
    out.update(
        {
            "lp.kernel.stacked_pivots_all": (
                sum(result.lp_statistics.stacked_pivots for result in results),
                "count",
            ),
            "lp.ilp.calls": (calls("lp.ilp", "certificate.lp.ilp"), "count"),
            "lp.ilp_s": (own("lp.ilp", "certificate.lp.ilp"), "s"),
            "lp.ilp.bb_limit_fallbacks": (counts.get("lp.ilp.bb_limit_fallbacks", 0), "count"),
            "ranking_lp.solves": (calls("ranking_lp"), "count"),
            "ranking_lp_s": (own("ranking_lp", "ranking_lp.simplex"), "s"),
            "ranking_lp.pivots": (counts.get("ranking_lp.pivots", 0), "count"),
            "invariants_s": (own("invariants"), "s"),
            "polyhedra.project.calls": (calls("polyhedra.project"), "count"),
            "polyhedra.project_s": (own("polyhedra.project"), "s"),
            "polyhedra.remove_redundant.calls": (calls("polyhedra.remove_redundant"), "count"),
            "polyhedra.remove_redundant_s": (own("polyhedra.remove_redundant"), "s"),
            "polyhedra.dd.calls": (calls("polyhedra.dd"), "count"),
            "polyhedra.dd_s": (own("polyhedra.dd"), "s"),
            "certificate.calls": (calls("certificate"), "count"),
            "certificate_s": (own("certificate"), "s"),
            "certificate.smt.theory.calls": (calls("certificate.smt.theory"), "count"),
            "certificate.smt_s": (
                own(*[key for key in spans if key.startswith("certificate.smt.")]),
                "s",
            ),
            "certificate.lp_s": (own("certificate.lp.solve_lp"), "s"),
            "nontermination.calls": (calls("nontermination"), "count"),
            "nontermination_s": (own("nontermination"), "s"),
            "nontermination.theory.calls": (calls("nontermination.theory"), "count"),
            "recurrence.calls": (calls("recurrence"), "count"),
            "recurrence_s": (own("recurrence"), "s"),
            "trace.wall_s": (traced.wall, "s"),
            "trace.untraced_wall_s": (untraced.wall, "s"),
            "trace.overhead_s": (traced.wall - untraced.wall, "s"),
            "trace.unattributed_s": (
                tracer.main_thread_self(*unattributed_spans(config)),
                "s",
            ),
            "trace.import_sites": (sum(sites.values()), "count"),
        }
    )
    return out


#: Per-layer metrics left out of the JSON line because their time reads
#: exactly 0 on the workloads that never reach the layer; the report
#: still prints them.
ZERO_ON_SOME_WORKLOADS = (
    "smt.core_s",
    "lp.solve_lp.ilp_s",
    "lp.solve_lp.other_s",
    "lp.ilp_s",
    "nontermination_s",
    "recurrence_s",
)


def unattributed_spans(config) -> tuple:
    """Spans whose self time no layer accounts for.

    These are the program span and the stages whose work the layer
    wrappers cover; the other stages have no layer below them, so their
    self time is their own layer.  In the ``nonterm="auto"`` race the main
    thread only waits in the synthesis stage while the lanes work, in
    spans of their own threads, so that stage is left out.
    """
    stages = ("invariants", "synthesis", "certificate")
    if config.nonterm == "auto":
        stages = ("invariants", "certificate")
    return ("program",) + tuple("stage." + stage for stage in stages)


def trace_checks(tracer, layers, traced: Pass, results, config) -> list:
    """Coverage of the trace, and its agreement with the program's counters."""
    errors = []
    share = layers["trace.unattributed_s"][0] / traced.wall
    if share > UNATTRIBUTED_SHARE:
        errors.append(
            "%.1f%% of the traced wall time is in no layer span (limit %.0f%%)"
            % (100.0 * share, 100.0 * UNATTRIBUTED_SHARE)
        )
    if config.nonterm == "off":
        # Without the race every lane's statistics reach the result, so
        # the program's own counters must equal the spans' counts.
        checks = (
            ("oracle.calls", sum(r.lp_statistics.oracle_queries for r in results)),
            ("ranking_lp.pivots", sum(r.lp_statistics.pivots for r in results)),
        )
        for name, expected in checks:
            if layers[name][0] != expected:
                errors.append(
                    "%s = %d from spans, %d from LpStatistics"
                    % (name, layers[name][0], expected)
                )
    return errors


# -- main ------------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_source()
    if args.setup_probe:
        setup_probe(args)
        return 0

    import corpus
    from gate import Gate, load_baseline, verdict_changes

    # Set-up counts in the run's ``--seconds``, before any pass.
    started = time.perf_counter()
    setup = measure_setup(args)
    from repro import AnalysisConfig

    config_kwargs, items = corpus.materialise(
        args.workload, args.seed, args.count, args.gen_seed
    )
    config = AnalysisConfig(**config_kwargs)
    gate = Gate(config.integer_mode)

    passes = []
    layers = None
    errors = []
    if args.trace:
        from layers import Tracer

        untraced = run_pass(items, config)
        rss = peak_rss_mb()
        untraced.settle(gate)
        tracer = Tracer()
        sites = tracer.install()
        try:
            traced = run_pass(items, config, tracer)
            unwrapped = tracer.unwrapped_sites()
        finally:
            tracer.uninstall()
        traced.settle(gate)
        passes = [untraced, traced]
        results = [r for r in traced.results if not isinstance(r, BaseException)]
        layers = layer_metrics(tracer, results, traced, untraced, sites, config)
        errors = ["import site left unwrapped: " + site for site in unwrapped]
        errors += trace_checks(tracer, layers, traced, results, config)
    else:
        while True:
            current = run_pass(items, config)
            if not passes:
                rss = peak_rss_mb()
            current.settle(gate)
            passes.append(current)
            elapsed = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed + current.wall > args.seconds:
                break

    # A traced pass is slower by the tracing overhead: the end-to-end
    # figures come from the untraced passes only.
    metrics = end_to_end(setup, passes[:1] if args.trace else passes, gate, rss)
    print(
        "perfbench %s seed=%d gen_seed=%d programs=%d passes=%d trace=%d"
        % (args.workload, args.seed, args.gen_seed, len(items), len(passes), args.trace)
    )
    print_table("end to end:", [(n, v, u, note) for n, (v, u, note) in metrics.items()])
    for line in gate.problems():
        print("  " + line)
    for line in gate.flips:
        print("  verdict not reproducible: " + line)

    baseline = load_baseline(args.workload)
    if args.write_baseline:
        write_baseline(args, gate, metrics)
    elif baseline is not None and (
        args.workload != "generated"
        or (baseline["gen_seed"], baseline["count"]) == (args.gen_seed, args.count)
    ):
        changes = verdict_changes(baseline, gate.statuses)
        print("verdicts vs baseline: %d changed" % len(changes))
        for line in changes:
            print("  " + line)

    if layers is not None:
        synthesis = layers["stage.synthesis_s"][0] or 1.0
        print_table(
            "per layer (self seconds; share of the traced wall time):",
            [
                (
                    name,
                    value,
                    unit,
                    "%.1f%%" % (100.0 * value / traced.wall) if unit == "s" else "",
                )
                for name, (value, unit) in layers.items()
            ],
        )
        print(
            "  ranking LP share of synthesis: %.2f%%"
            % (100.0 * layers["ranking_lp_s"][0] / synthesis)
        )
        for line in errors:
            print("trace check failed: " + line)
        if errors:
            return 3
        chosen = {
            name: metric(value, unit)
            for name, (value, unit) in layers.items()
            if name not in ZERO_ON_SOME_WORKLOADS
        }
    else:
        chosen = {name: metric(*metrics[name][:2]) for name in JSON_END_TO_END}

    correct = metrics["unsound"][0] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": chosen,
            }
        )
    )
    return 0 if correct else 1


def write_baseline(args, gate, metrics) -> None:
    from gate import baseline_path

    data = {
        "workload": args.workload,
        "gen_seed": args.gen_seed if args.workload == "generated" else None,
        "count": len(gate.statuses),
        "counts": {name: metrics[name][0] for name in ("proved", "disproved", "unknown", "failed", "unverified", "unsound")},
        "verdicts": dict(sorted(gate.statuses.items())),
    }
    path = baseline_path(args.workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")
    print("wrote " + str(path.relative_to(ROOT)))


if __name__ == "__main__":
    sys.exit(main())
