"""Result families shared by the constraint and cutset-chain semantics."""

from __future__ import annotations

from dataclasses import dataclass

from .model import JointDistribution

#: Family statuses.
EMPTY = "empty"
UNIQUE = "unique"
INFINITE = "infinite"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class SemanticsFamily:
    """A set of distributions produced by one of the semantics.

    ``distributions`` holds the single member when unique, or known
    members/extreme points when infinite.
    """

    kind: str            # bn | cpt | wcpt | cpti | mc | lim | limavg
    status: str          # empty | unique | infinite | unsupported
    distributions: tuple[JointDistribution, ...] = ()
    notes: str = ""

    @property
    def unique_distribution(self) -> JointDistribution:
        if self.status != UNIQUE:
            raise ValueError(f"family is {self.status}, not unique")
        return self.distributions[0]
