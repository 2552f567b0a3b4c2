"""Named work counters, recorded per thread.

Library code calls :func:`count` at the events worth counting (an FM
combination, a SAT call, a theory conflict, ...).  Nothing is kept unless
a :func:`recording` is open on the calling thread::

    with recording() as counters:
        analysis.run("termite")
    counters["smt.solver.sat_calls"]

A recording holds the counts of its own block only.  When it closes, its
counts are added into the enclosing recording of the same thread, if
any, so nested recordings never lose work.  Counters are thread-local,
so analyses running on different threads (service requests, tests)
never see each other's counts; a thread that should contribute to a
caller's recording opens its own and hands the counts back.

Names are ``<package>.<module>.<event>``, e.g.
``polyhedra.projection.lp_calls_saved``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator

_LOCAL = threading.local()


def count(name: str, n: int = 1) -> None:
    """Add *n* to counter *name* of the open recording (no-op without one)."""
    counters = getattr(_LOCAL, "counters", None)
    if counters is not None:
        counters[name] = counters.get(name, 0) + n


@contextmanager
def recording() -> Iterator[Dict[str, int]]:
    """Collect the counts of the block; add them to the enclosing recording."""
    outer = getattr(_LOCAL, "counters", None)
    counters: Dict[str, int] = {}
    _LOCAL.counters = counters
    try:
        yield counters
    finally:
        _LOCAL.counters = outer
        if outer is not None:
            for name, n in counters.items():
                outer[name] = outer.get(name, 0) + n
