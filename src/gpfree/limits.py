"""Resource budgets.

Every potentially expensive operation takes a Limits instance; the defaults
are generous enough for all shipped experiments but keep accidental
`--len 10**12` style requests from eating the machine.  Limits is a
namedtuple: `DEFAULT_LIMITS._replace(process_max_n=100)` makes a variant.
"""

from collections import namedtuple

_DEFAULTS = {
    "sieve_max_len": 10**7,          # longest divisor-table window
    "mertens_max_x": 10**8,          # largest prime-sum cutoff and sieve prime base
    "process_max_n": 10**7,          # largest process horizon
    "search_node_budget": None,      # None = unbounded
    "search_time_budget_s": None,
    "survival_max_trials": 10**6,    # Monte Carlo trials; about 35 s at 35 us each
}

Limits = namedtuple("Limits", _DEFAULTS, defaults=_DEFAULTS.values())

DEFAULT_LIMITS = Limits()
