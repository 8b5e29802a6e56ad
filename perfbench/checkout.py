"""Locate the checkout and import `smdc` from its `src/` directory.

The benchmark runs from a plain checkout with nothing installed, so it
puts `<checkout>/src` first on the import path and refuses to measure
any other copy of the package.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


def import_smdc():
    """Return the checkout's `smdc` package, or exit with status 1."""
    sys.path.insert(0, SRC)
    try:
        import smdc
        import smdc.cli  # noqa: F401  (the entry point every command uses)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import smdc from {SRC}: {exc}")
    here = os.path.realpath(os.path.dirname(smdc.__file__))
    if os.path.dirname(here) != os.path.realpath(SRC):
        sys.exit(f"perfbench: imported smdc from {here}, not from {SRC}")
    return smdc
