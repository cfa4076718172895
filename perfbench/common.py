"""Helpers shared by the workload modules."""


class Raised:
    """Stands in for the answer of a query that raised."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason


def form(group):
    """Canonical form of an extcalc group as plain JSON data."""
    rank, torsion = group.canonical_form
    return [rank, list(torsion)]
