"""Sorting-algorithm loop structures (6 programs, 5 terminating).

Comparison sorts are modelled by their index manipulation: the array
contents are irrelevant to termination, but comparisons on them are kept
as nondeterministic choices, which is exactly what makes some of these
benchmarks hard (the branch taken cannot be predicted).
"""

from __future__ import annotations

from typing import List

from repro.benchsuite.program import BenchmarkProgram

SUITE = "sorts"


BUBBLE_SORT = """
var i, j, n;
assume(n >= 0 and n <= 10000);
i = n;
while (i > 0) {
    j = 0;
    while (j < i - 1) {
        if (nondet()) { skip; } else { skip; }
        j = j + 1;
    }
    i = i - 1;
}
"""

INSERTION_SORT = """
var i, j, n;
assume(n >= 1 and n <= 10000);
i = 1;
while (i < n) {
    j = i;
    while (j > 0 and nondet()) {
        j = j - 1;
    }
    i = i + 1;
}
"""

SELECTION_SORT = """
var i, j, min, n;
assume(n >= 0 and n <= 10000);
i = 0;
while (i < n) {
    min = i;
    j = i + 1;
    while (j < n) {
        if (nondet()) { min = j; } else { skip; }
        j = j + 1;
    }
    i = i + 1;
}
"""

GNOME_SORT = """
var pos, n;
assume(n >= 0 and n <= 10000);
pos = 0;
while (pos < n) {
    if (pos == 0) {
        pos = pos + 1;
    } else {
        if (nondet()) {
            pos = pos + 1;
        } else {
            pos = pos - 1;
        }
    }
}
"""

COCKTAIL_SORT = """
var lo, hi, j, n;
assume(n >= 0 and n <= 10000);
lo = 0;
hi = n;
while (lo < hi) {
    j = lo;
    while (j < hi - 1) { j = j + 1; }
    hi = hi - 1;
    j = hi;
    while (j > lo) { j = j - 1; }
    lo = lo + 1;
}
"""

SHELL_SORT_GAPS = """
var gap, i, j, n;
assume(n >= 1 and n <= 10000);
gap = n;
while (gap > 1) {
    gap = gap - 1;
    i = gap;
    while (i < n) {
        j = i;
        while (j >= gap and nondet()) {
            j = j - gap;
        }
        i = i + 1;
    }
}
"""


def build_suite() -> List[BenchmarkProgram]:
    """The 6 sorting benchmarks."""
    table = [
        ("bubble_sort", BUBBLE_SORT, "outer countdown, inner counted scan", True),
        ("insertion_sort", INSERTION_SORT, "inner loop walks back nondeterministically", True),
        ("selection_sort", SELECTION_SORT, "minimum search with data-dependent branch", True),
        (
            "gnome_sort",
            GNOME_SORT,
            "non-terminating: the nondeterministic comparison can step back "
            "forever. From pos = 0 with n >= 2, the pos == 0 branch sets "
            "pos = 1, then the nondet() else-branch sets pos = 0 again",
            False,
        ),
        ("cocktail_sort", COCKTAIL_SORT, "shrinking window swept in both directions", True),
        ("shell_sort", SHELL_SORT_GAPS, "gap sequence with gap-strided inner walk", True),
    ]
    return [
        BenchmarkProgram(name, SUITE, terminating, source, description=description)
        for name, source, description, terminating in table
    ]


PROGRAMS = build_suite()
