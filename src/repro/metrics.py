"""Named work counters, recorded per thread.

Library code calls :func:`count` at the events worth counting (an FM
combination, a SAT call, a theory conflict, ...).  Nothing is kept unless
a :func:`recording` is open on the calling thread::

    with recording() as counters:
        analysis.run("termite")
    counters["smt.solver.sat_calls"]

A recording holds the counts of its own block only.  When it closes, its
counts are merged into the enclosing recording of the same thread, if
any, so nested recordings never lose work.  Counters are thread-local,
so analyses running on different threads (service requests, tests)
never see each other's counts; a thread that should contribute to a
caller's recording opens its own and hands the counts back.

Names are ``<package>.<module>.<event>``, e.g.
``polyhedra.projection.lp_calls_saved``.  A counter whose name ends in
``.max`` (e.g. ``core.lp_instance.rows.max``) keeps its largest value
instead of a sum: in :func:`count`, when recordings nest and in
:func:`merge`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping

_LOCAL = threading.local()


def _add(counters: Dict[str, int], name: str, n: int) -> None:
    if name.endswith(".max"):
        counters[name] = max(counters.get(name, n), n)
    else:
        counters[name] = counters.get(name, 0) + n


def count(name: str, n: int = 1) -> None:
    """Add *n* to counter *name* of the open recording (no-op without one).

    A ``.max`` counter keeps the largest *n* instead.
    """
    counters = getattr(_LOCAL, "counters", None)
    if counters is not None:
        _add(counters, name, n)


def merge(into: Dict[str, int], counts: Mapping[str, int]) -> Dict[str, int]:
    """Merge *counts* into *into* (sums; ``.max`` counters keep the larger)."""
    for name, n in counts.items():
        _add(into, name, n)
    return into


@contextmanager
def recording() -> Iterator[Dict[str, int]]:
    """Collect the counts of the block; merge them into the enclosing one."""
    outer = getattr(_LOCAL, "counters", None)
    counters: Dict[str, int] = {}
    _LOCAL.counters = counters
    try:
        yield counters
    finally:
        _LOCAL.counters = outer
        if outer is not None:
            merge(outer, counters)
