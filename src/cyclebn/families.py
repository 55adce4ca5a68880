"""Result families shared by the constraint and cutset-chain semantics:
each is empty, a single distribution, or infinitely many."""

from __future__ import annotations

from .model import JointDistribution, _Value

#: Family statuses.
EMPTY = "empty"
UNIQUE = "unique"
INFINITE = "infinite"


class SemanticsFamily(_Value):
    """A set of distributions produced by one of the semantics.

    ``kind`` is bn, cpt, wcpt, cpti, mc, lim or limavg, and ``status`` one
    of the family statuses above.  ``distributions`` holds the single
    member when unique, or known members/extreme points when infinite.
    """

    _fields = ("kind", "status", "distributions", "notes")

    def __init__(self, kind: str, status: str,
                 distributions: tuple[JointDistribution, ...] = (),
                 notes: str = "") -> None:
        vars(self).update(kind=kind, status=status,
                          distributions=distributions, notes=notes)
