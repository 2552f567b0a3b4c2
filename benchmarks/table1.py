#!/usr/bin/env python3
"""Regenerate the paper's Table 1 (delegates to ``repro table1``).

Runs every prover over every suite (or a subset via command-line options)
through the crash-isolated parallel engine, resolving tool names via the
prover registry of :mod:`repro.api`.  The implementation lives in
:func:`repro.cli.table1_main` so the same harness is reachable three ways:

    python benchmarks/table1.py --quick
    python -m repro table1 --quick
    repro table1 --quick                  # after `pip install -e .`

Examples::

    python benchmarks/table1.py --quick               # fast subset
    python benchmarks/table1.py --suite wtc            # one full suite
    python benchmarks/table1.py --tool termite --tool heuristic --tool dnf
    python benchmarks/table1.py --jobs 4 --timeout 60 --json table1.json
    python benchmarks/table1.py --filter sort          # name substring
"""

import sys

from repro.cli import table1_main


def main(argv=None) -> int:
    return table1_main(argv)


if __name__ == "__main__":
    sys.exit(main())
