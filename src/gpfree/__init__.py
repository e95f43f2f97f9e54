"""Geometric-progression-free sequences with small gaps: core machinery.

Modules:
  gpcore    canonical k-GP representation, enumeration, membership
  divisor   d_k / d_{i,j}, segmented sieves, short-interval sums
  bounds    envelope functions and explicit constants
  process   the three randomized GP-removal processes
  syndetic  exhaustive pair-selection search on [1, N]
  cli       command-line front end

Import a module to use it (`from gpfree import process`).  Only process.run's
vector kernel, process.run_to_bitmap and divisor.mertens_sum load numpy,
inside the function, so of the cli commands only `process run` and
`divisor mertens` do.  `import gpfree` loads errors and limits alone, and the
records of every module are namedtuples, which cost no import beyond
collections.  A cli command loads only its group's module and that module's
imports: `gp` loads gpcore, `process` loads process, bounds and gpcore,
`syndetic` loads syndetic and gpcore, and `divisor` and `bounds` load their
namesakes alone.
"""

__version__ = "0.1.0"

from .errors import DomainError, GPFreeError, ResourceLimit  # noqa: F401
from .limits import DEFAULT_LIMITS, Limits  # noqa: F401
