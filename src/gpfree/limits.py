"""Resource budgets.

Every potentially expensive operation takes a Limits instance; the defaults
are generous enough for all shipped experiments but keep accidental
`--len 10**12` style requests from eating the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    sieve_max_len: int = 10**7        # longest divisor-table window
    mertens_max_x: int = 10**8        # largest prime-sum cutoff and sieve prime base
    process_max_n: int = 10**7        # largest process horizon
    search_node_budget: int | None = None   # None = unbounded
    search_time_budget_s: float | None = None

    def with_overrides(self, **kw) -> "Limits":
        return replace(self, **kw)


DEFAULT_LIMITS = Limits()
