"""Core value types: assignments, joint distributions, CPTs, and networks.

All probabilities are exact ``fractions.Fraction`` values; there is no
floating point anywhere in the package.  Variables are Boolean and named by
strings; the canonical variable order is ascending lexicographic, and the
canonical index of an assignment treats the first-sorted variable as the
most significant bit (F=0, T=1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

ZERO = Fraction(0)
ONE = Fraction(1)

#: Dense tables are capped at 2**20 states.
MAX_DENSE_VARS = 20


class CapacityError(Exception):
    """Raised when a dense representation would exceed the size cap."""


class InternalError(Exception):
    """A mathematical invariant of a computation failed: a bug, not bad input."""


def _check_capacity(variables: Iterable[str]) -> tuple[str, ...]:
    vs = tuple(sorted(variables))
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable names: {vs}")
    if len(vs) > MAX_DENSE_VARS:
        raise CapacityError(
            f"{len(vs)} variables exceed the dense cap of {MAX_DENSE_VARS}")
    return vs


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a decimal literal into an exact fraction."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def sums_to_one(values) -> bool:
    """Exact test that rationals sum to 1, done in integers over their
    least common denominator instead of by pairwise Fraction addition."""
    values = tuple(values)
    d = math.lcm(*(q.denominator for q in values))
    return sum(q.numerator * (d // q.denominator) for q in values) == d


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def canonical_index(assignment: Mapping[str, bool],
                    variables: Iterable[str] | None = None) -> int:
    """Index of a total assignment; first-sorted variable is the MSB."""
    vs = tuple(sorted(variables)) if variables is not None else tuple(sorted(assignment))
    if set(vs) != set(assignment):
        raise ValueError("assignment domain does not match the variable set")
    idx = 0
    for v in vs:
        idx = (idx << 1) | (1 if assignment[v] else 0)
    return idx


def assignment_from_index(index: int, variables: Iterable[str]) -> dict[str, bool]:
    """Inverse of :func:`canonical_index`."""
    vs = tuple(sorted(variables))
    n = len(vs)
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} variables")
    return {v: bool((index >> (n - 1 - i)) & 1) for i, v in enumerate(vs)}


def all_assignments(variables: Iterable[str]):
    """All assignments over ``variables`` in canonical index order."""
    vs = tuple(sorted(variables))
    for idx in range(1 << len(vs)):
        yield assignment_from_index(idx, vs)


@dataclass(frozen=True)
class JointDistribution:
    """Dense distribution over all assignments of a variable set.

    ``probs[i]`` is the probability of the assignment with canonical
    index ``i``; the entries sum to exactly one.
    """

    variables: tuple[str, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        vs = _check_capacity(self.variables)
        object.__setattr__(self, "variables", vs)
        probs = tuple(p if type(p) is Fraction else Fraction(p)
                      for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != 1 << len(vs):
            raise ValueError("probability vector length must be 2**n")
        if any(not 0 <= p.numerator <= p.denominator for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if not sums_to_one(probs):
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")

    @staticmethod
    def uniform(variables: Iterable[str]) -> "JointDistribution":
        vs = _check_capacity(variables)
        n = 1 << len(vs)
        return JointDistribution(vs, tuple([Fraction(1, n)] * n))

    def prob(self, assignment: Mapping[str, bool]) -> Fraction:
        return self.probs[canonical_index(assignment, self.variables)]

    def partial_prob(self, partial: Mapping[str, bool]) -> Fraction:
        """Probability mass of all completions of a partial assignment."""
        unknown = set(partial) - set(self.variables)
        if unknown:
            raise ValueError(f"unknown variables: {sorted(unknown)}")
        total = ZERO
        for idx, p in enumerate(self.probs):
            if p == 0:
                continue
            b = assignment_from_index(idx, self.variables)
            if all(b[v] == val for v, val in partial.items()):
                total += p
        return total

    def restrict(self, subset: Iterable[str]) -> "JointDistribution":
        """Marginalize onto a subset of the variables."""
        sub = tuple(sorted(subset))
        unknown = set(sub) - set(self.variables)
        if unknown:
            raise ValueError(f"unknown variables: {sorted(unknown)}")
        probs = [ZERO] * (1 << len(sub))
        for idx, p in enumerate(self.probs):
            if p == 0:
                continue
            b = assignment_from_index(idx, self.variables)
            probs[canonical_index({v: b[v] for v in sub}, sub)] += p
        return JointDistribution(sub, tuple(probs))

    def product(self, other: "JointDistribution") -> "JointDistribution":
        """Product distribution over the disjoint union of variables."""
        overlap = set(self.variables) & set(other.variables)
        if overlap:
            raise ValueError(f"variable sets overlap: {sorted(overlap)}")
        vs = tuple(sorted(self.variables + other.variables))
        probs = [ZERO] * (1 << len(vs))
        for c in all_assignments(vs):
            p = self.prob({v: c[v] for v in self.variables}) \
                * other.prob({v: c[v] for v in other.variables})
            probs[canonical_index(c, vs)] = p
        return JointDistribution(vs, tuple(probs))

    def rename(self, mapping: Mapping[str, str]) -> "JointDistribution":
        """Relabel variables; the table is re-sorted to the new canonical order."""
        new_vars = tuple(sorted(mapping.get(v, v) for v in self.variables))
        if len(set(new_vars)) != len(new_vars):
            raise ValueError("renaming collapses variables")
        probs = [ZERO] * len(self.probs)
        for idx, p in enumerate(self.probs):
            b = assignment_from_index(idx, self.variables)
            probs[canonical_index({mapping.get(v, v): val for v, val in b.items()},
                                  new_vars)] = p
        return JointDistribution(new_vars, tuple(probs))


def dirac(assignment: Mapping[str, bool]) -> JointDistribution:
    """Point mass on a single assignment."""
    vs = tuple(sorted(assignment))
    probs = [ZERO] * (1 << len(vs))
    probs[canonical_index(assignment, vs)] = ONE
    return JointDistribution(vs, tuple(probs))


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table: Pr(owner=T | parent assignment).

    ``rows[i]`` is the entry for the parent assignment with canonical
    index ``i`` over the sorted parent set.
    """

    owner: str
    parents: tuple[str, ...]
    rows: tuple[Fraction, ...]

    def __post_init__(self):
        parents = _check_capacity(self.parents)
        object.__setattr__(self, "parents", parents)
        rows = tuple(Fraction(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != 1 << len(parents):
            raise ValueError(
                f"CPT for {self.owner} needs {1 << len(parents)} rows, got {len(rows)}")

    def prob_true(self, parent_assignment: Mapping[str, bool]) -> Fraction:
        return self.rows[canonical_index(
            {v: parent_assignment[v] for v in self.parents}, self.parents)]

    def prob(self, value: bool, parent_assignment: Mapping[str, bool]) -> Fraction:
        p = self.prob_true(parent_assignment)
        return p if value else ONE - p


@dataclass(frozen=True)
class Violation:
    kind: str   # MissingCptRow | ParentMismatch | NotNormalized | OutOfRange | IotaDomainMismatch
    node: str
    message: str


@dataclass(frozen=True)
class Gbn:
    """A Bayesian network whose graph may contain directed cycles.

    Non-initial nodes carry CPTs; the (possibly correlated) distribution
    ``iota`` covers exactly the initial nodes.  When there are no initial
    nodes, ``iota`` is the unique distribution over the empty variable set.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    cpts: Mapping[str, Cpt]
    iota: JointDistribution

    def __post_init__(self):
        object.__setattr__(self, "nodes", _check_capacity(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "cpts", dict(self.cpts))

    def predecessors(self, node: str) -> frozenset[str]:
        return frozenset(u for (u, v) in self.edges if v == node)

    @property
    def initial_nodes(self) -> frozenset[str]:
        targets = {v for (_, v) in self.edges}
        return frozenset(self.nodes) - targets

    def validate(self) -> list[Violation]:
        report: list[Violation] = []
        node_set = set(self.nodes)
        for (u, v) in self.edges:
            if u not in node_set or v not in node_set:
                report.append(Violation("ParentMismatch", u,
                                        f"edge ({u}, {v}) references unknown node"))
        init = self.initial_nodes
        non_initial = set(self.nodes) - init
        for x in sorted(non_initial):
            cpt = self.cpts.get(x)
            if cpt is None:
                report.append(Violation("MissingCptRow", x, "no CPT for non-initial node"))
                continue
            if set(cpt.parents) != set(self.predecessors(x)):
                report.append(Violation(
                    "ParentMismatch", x,
                    f"CPT parents {cpt.parents} differ from predecessors "
                    f"{tuple(sorted(self.predecessors(x)))}"))
            for i, r in enumerate(cpt.rows):
                if not 0 <= r <= 1:
                    report.append(Violation("OutOfRange", x, f"CPT row {i} entry {r}"))
        for x in sorted(set(self.cpts) - non_initial):
            report.append(Violation("ParentMismatch", x,
                                    "CPT attached to an initial or unknown node"))
        if set(self.iota.variables) != init:
            report.append(Violation(
                "IotaDomainMismatch", ",".join(sorted(init)),
                f"iota covers {self.iota.variables}, initial nodes are {tuple(sorted(init))}"))
        return report

    def is_valid(self) -> bool:
        return not self.validate()


def make_gbn(nodes: Iterable[str],
             edges: Iterable[tuple[str, str]],
             cpts: Iterable[Cpt],
             iota: JointDistribution | None = None) -> Gbn:
    """Convenience constructor; defaults ``iota`` to the empty-set distribution."""
    if iota is None:
        iota = JointDistribution((), (ONE,))
    return Gbn(tuple(nodes), frozenset(edges), {c.owner: c for c in cpts}, iota)
