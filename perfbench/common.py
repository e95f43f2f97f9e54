"""Paths, the CLI launcher and the command record shared by run.py and layers.py."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()  # the benchmark runs from the root of a source checkout
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"

# What the `gpfree` console script runs, without needing an install.
CLI = [sys.executable, "-c", "import sys; from gpfree.cli import main; sys.exit(main())"]


def child_env() -> dict:
    """The parent's environment with the checkout's sources and no GPFREE_WORKERS."""
    env = {k: v for k, v in os.environ.items() if k not in ("GPFREE_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Record:
    """One finished command."""

    __slots__ = ("cmd", "rc", "out", "err", "wall", "rss_kb", "setup")

    def __init__(self, cmd, rc, out, err, wall, rss_kb=0, setup=False):
        self.cmd, self.rc, self.out, self.err = cmd, rc, out, err
        self.wall, self.rss_kb, self.setup = wall, rss_kb, setup


def fmt_line(name, value, unit, note) -> str:
    return f"  {name:<32} {value:>14.6f} {unit:<6} ({note})"
