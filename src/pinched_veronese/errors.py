"""Shared exception types."""

from __future__ import annotations

# the default cap on a scan's estimated cost, complexes x subsets
DEFAULT_COMPLEX_BUDGET = 100_000_000


class UncertifiedTableError(ValueError):
    """A Betti table's scanned range is too small to certify the requested claim."""


class ResourceLimitExceeded(RuntimeError):
    """A computation was refused because its estimated cost exceeds the budget."""

    def __init__(self, estimate: int, budget: int, message: str | None = None):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            message
            or f"estimated cost {estimate} exceeds the budget {budget}; "
            f"raise the budget to force the run"
        )
