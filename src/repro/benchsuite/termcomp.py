"""Termination-Competition-style integer programs (129 programs).

The Integer Transition System / C-Integer categories of the Termination
Competition consist of many small programs: single loops with linear
updates, a few nested or phased loops, and a number of non-terminating
instances that tools must not claim to prove.  The suite below mixes
hand-written classics with parametric families; its size (129) matches the
count reported in Table 1 of the paper.
"""

from __future__ import annotations

from typing import List

from repro.benchsuite.program import BenchmarkProgram

SUITE = "termcomp"


def _simple(name: str, source: str, terminating: bool = True, description: str = "") -> BenchmarkProgram:
    return BenchmarkProgram(name, SUITE, terminating, source, description=description)


def _countdown(step: int) -> BenchmarkProgram:
    source = """
    var x;
    while (x > 0) { x = x - %d; }
    """ % step
    return _simple("countdown_step%d" % step, source, True, "x decreases by %d" % step)


def _count_up(bound: int) -> BenchmarkProgram:
    source = """
    var i, n;
    assume(n <= %d);
    i = 0;
    while (i < n) { i = i + 1; }
    """ % bound
    return _simple("count_up_to_%d" % bound, source, True, "counter races to a bound")


def _race(gap: int) -> BenchmarkProgram:
    source = """
    var x, y;
    while (x < y) { x = x + %d; y = y + 1; }
    """ % gap
    terminating = gap >= 2
    return _simple(
        "race_gap%d" % gap,
        source,
        terminating,
        "x gains %d per step on y (terminates iff the gap closes)" % gap,
    )


def _two_phase(reset: int) -> BenchmarkProgram:
    source = """
    var x, y;
    assume(y >= 0 and y <= %d);
    while (x > 0) {
        if (y > 0) { y = y - 1; } else { x = x - 1; y = %d; }
    }
    """ % (reset, reset)
    return _simple(
        "two_phase_reset%d" % reset,
        source,
        True,
        "inner budget y refilled each time x decreases",
    )


def _diverging(kind: int) -> BenchmarkProgram:
    sources = {
        0: ("diverge_increment", "var x;\nassume(x >= 1);\nwhile (x > 0) { x = x + 1; }"),
        1: ("diverge_constant", "var x;\nassume(x == 5);\nwhile (x > 0) { skip; }"),
        2: ("diverge_oscillate", "var x;\nwhile (x != 0) { x = 0 - x; }"),
        3: (
            "diverge_havoc",
            "var x;\nwhile (x > 0) { x = nondet(); assume(x > 0); }",
        ),
        4: ("diverge_even", "var x;\nassume(x >= 2);\nwhile (x >= 2) { x = x; }"),
    }
    name, source = sources[kind]
    return _simple(name, source, False, "non-terminating instance")


HANDWRITTEN = [
    _simple(
        "gcd_subtraction",
        """
        var a, b;
        assume(a >= 1 and b >= 1);
        while (a != b) {
            if (a > b) { a = a - b; } else { b = b - a; }
        }
        """,
        True,
        "Euclid by repeated subtraction",
    ),
    _simple(
        "terminate_by_wraparound",
        """
        var x, n;
        assume(n >= 0);
        x = n;
        while (x >= 0) { x = x - 1; }
        """,
        True,
        "runs one step past zero",
    ),
    _simple(
        "bounded_nondet_walk",
        """
        var x, fuel;
        assume(fuel >= 0);
        while (fuel > 0) {
            if (nondet()) { x = x + 1; } else { x = x - 1; }
            fuel = fuel - 1;
        }
        """,
        True,
        "random walk limited by fuel",
    ),
    _simple(
        "alternating_decrease",
        """
        var x, turn;
        assume(turn >= 0 and turn <= 1);
        while (x > 0) {
            if (turn > 0) { x = x - 2; turn = 0; } else { x = x - 1; turn = 1; }
        }
        """,
        True,
        "decrease amount depends on a toggling flag",
    ),
    _simple(
        "collatz_shaped_bounded",
        """
        var x, steps;
        assume(steps >= 0 and steps <= 100000);
        while (x > 1 and steps > 0) {
            if (nondet()) { x = x - 1; } else { x = x + 1; }
            steps = steps - 1;
        }
        """,
        True,
        "unknown dynamics cut off by a step counter",
    ),
    _simple(
        "nested_dependent",
        """
        var i, j, n;
        assume(n >= 0 and n <= 1000);
        i = 0;
        while (i < n) {
            j = i;
            while (j < n) { j = j + 1; }
            i = i + 1;
        }
        """,
        True,
        "inner loop starts where the outer counter is",
    ),
    _simple(
        "decrease_on_either",
        """
        var x, y;
        while (x > 0 and y > 0) {
            if (nondet()) { x = x - 1; } else { y = y - 1; }
        }
        """,
        True,
        "either coordinate decreases; sum is a ranking function",
    ),
    _simple(
        "widening_challenge",
        """
        var x, y;
        assume(x >= 0 and y >= 0 and x <= 100 and y <= 100);
        while (x + y > 0) {
            if (x > 0) { x = x - 1; } else { y = y - 1; }
        }
        """,
        True,
        "sum of two nonnegative counters",
    ),
    _simple(
        "nonterm_partial_guard",
        """
        var x, y;
        while (x > 0) {
            if (y > 0) { x = x - 1; } else { skip; }
        }
        """,
        False,
        "stutters forever once y is exhausted",
    ),
    _simple(
        "swap_until_sorted",
        """
        var a, b, c;
        while (a > b or b > c) {
            if (a > b) {
                a = b; b = a;
            } else {
                b = c; c = b;
            }
        }
        """,
        True,
        "terminates by the lexicographic ranking ⟨b − c, a − b⟩, which the "
        "checker accepts; termite rejects it because it bounds every "
        "component on the whole invariant, and b − c is unbounded below on "
        "the a > b path",
    ),
]


def build_suite() -> List[BenchmarkProgram]:
    """The 129 TermComp-style programs."""
    programs: List[BenchmarkProgram] = []
    programs.extend(HANDWRITTEN)
    for step in range(1, 21):
        programs.append(_countdown(step))
    for bound in (10, 100, 1000, 10000, 100000):
        programs.append(_count_up(bound))
    for gap in range(0, 12):
        programs.append(_race(gap))
    for reset in range(1, 11):
        programs.append(_two_phase(reset))
    for kind in range(5):
        programs.append(_diverging(kind))

    # Linear-update single loops: x' = a·x + b with a guard, a large family of
    # tiny programs exactly in the competition's style.
    for offset in range(1, 16):
        source = """
        var x, y;
        assume(y >= 0);
        while (x > y) { x = x - %d; }
        """ % offset
        programs.append(
            _simple("gap_closing_%d" % offset, source, True, "x sinks to a parameter")
        )
    for offset in range(1, 16):
        source = """
        var x, y;
        while (x > 0) { x = x + y; assume(y <= 0 - %d); }
        """ % offset
        programs.append(
            _simple(
                "parametric_step_%d" % offset,
                source,
                True,
                "step size is a parameter bounded away from zero",
            )
        )
    # Double-variable lexicographic families.
    for reset in range(1, 16):
        source = """
        var x, y;
        assume(y <= %d);
        while (x > 0) {
            if (y > 0) { y = y - 1; } else { x = x - 1; y = %d; }
        }
        """ % (reset, reset)
        programs.append(
            _simple(
                "lexicographic_%d" % reset,
                source,
                True,
                "classic ⟨x, y⟩ lexicographic descent",
            )
        )
    # Counter pairs where an unrelated variable keeps growing.
    for growth in range(1, 16):
        source = """
        var x, y;
        while (x > 0) { x = x - 1; y = y + %d; }
        """ % growth
        programs.append(
            _simple(
                "shift_pair_%d" % growth,
                source,
                True,
                "x counts down while y grows (y is irrelevant)",
            )
        )
    # Non-terminating drifting loops.
    for drift in range(1, 8):
        source = """
        var x;
        assume(x >= %d);
        while (x > 0) { x = x + %d; }
        """ % (drift, drift)
        programs.append(
            _simple("nonterm_drift_%d" % drift, source, False, "x drifts upwards")
        )

    assert len(programs) == 129, len(programs)
    return programs


PROGRAMS = build_suite()
