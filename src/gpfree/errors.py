"""Exception hierarchy shared across the package.

Every library error is a GPFreeError: a DomainError for an argument or
document that no operation accepts, a ResourceLimit for one that a budget in
gpfree.limits.Limits refuses.  The message says which rule failed.
"""


class GPFreeError(Exception):
    """Base class for all library errors."""


class DomainError(GPFreeError):
    """An argument lies outside an operation's stated domain: a sequence that is
    not a nontrivial GP, a run with too few survivors, a malformed run file or
    selection."""


class ResourceLimit(GPFreeError):
    """A configured memory/node/time budget would be exceeded."""
