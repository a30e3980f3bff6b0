"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one experiment from the paper (see
DESIGN.md §4 and EXPERIMENTS.md): it runs the measurement once (the
interesting cost is simulated work, not wall-clock variance), prints
the paper-style table, and asserts the qualitative shape so a
regression that changes *who wins* fails loudly. ``test_perf.py`` is
the one exception: the simulator's own performance budgets.

Run with:  pytest benchmarks/ -s
"""

from __future__ import annotations

import sys


def emit(text: str) -> None:
    """Print a result table so it survives pytest's capture with -s."""
    sys.stdout.write("\n" + text + "\n")
