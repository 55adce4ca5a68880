"""Core value types: assignments, joint distributions, CPTs, and networks.

All probabilities are exact: rationals or integers over a common
denominator; there is no floating point anywhere in the package.
Variables are Boolean and named by strings; the canonical variable order
is ascending lexicographic, and the canonical index of an assignment
treats the first-sorted variable as the most significant bit (F=0, T=1).

Every table is dense and in canonical index order.  A joint distribution
and a CPT each hold their table as integer numerators over their least
common denominator, and its ``Fraction`` tuple is built only when read.
``fractions`` (with ``decimal`` and ``numbers``) is imported where a
``Fraction`` is built, so importing the package does not load it.
:func:`sub_indices` maps each index over a variable set to the index of
the assignment's restriction to some of those variables, so marginals,
products, renamings and the chain rule build no dict per assignment;
only :func:`canonical_index` and :func:`assignment_from_index` convert
between an assignment dict and its index.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

#: Dense tables are capped at 2**20 states.
MAX_DENSE_VARS = 20


class CapacityError(Exception):
    """Raised when a dense representation would exceed the size cap."""


class InternalError(Exception):
    """A mathematical invariant of a computation failed: a bug, not bad input."""


class _Value:
    """Immutable value type.  An instance equals, and hashes as, an
    instance of its own class with the same ``_fields``; its ``repr``
    spells the fields out in order.  A subclass fills ``__dict__`` once
    in ``__init__``, and ``cached_property`` may add to it later;
    attributes cannot be assigned or deleted."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        d = self.__dict__
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={d[f]!r}" for f in self._fields) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    # Fraction expands 10**exponent unchecked: cap it as int() caps "p/q".
    exponent = "e" in text.lower() and re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    limit = exponent and getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(int(exponent[1])) > limit:
        raise ValueError(f"decimal exponent in {text!r} exceeds {limit} digits")
    from fractions import Fraction
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def scaled(values) -> tuple[list[int], int]:
    """Numerators of the rationals ``values`` over the lcm of their
    denominators, and that lcm."""
    values = tuple(values)
    d = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (d // q.denominator) for q in values], d


def rational_text(p: int, q: int) -> str:
    """The text of p/q, q > 0, in lowest terms: "p/q", or "p" when the
    reduced q is 1, as ``str`` writes a ``Fraction``."""
    g = math.gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    return f"{p}/{q}" if q != 1 else str(p)


def canonical_index(assignment: Mapping[str, bool], variables: Iterable[str]) -> int:
    """Index of a total assignment; first-sorted variable is the MSB."""
    vs = tuple(sorted(variables))
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


def sub_indices(variables: Sequence[str], names: Sequence[str]) -> list[int]:
    """For every canonical index over ``variables``, the index of that
    assignment's restriction to ``names``, read in the order given (first
    name the most significant bit).  Built by doubling: O(2**n)."""
    unknown = set(names) - set(variables)
    if unknown:
        raise ValueError(f"unknown variables: {sorted(unknown)}")
    weight = {v: 1 << i for i, v in enumerate(reversed(names))}
    idx = [0]
    for v in sorted(variables):
        idx = [k + b for k in idx for b in (0, weight.get(v, 0))]
    return idx


class JointDistribution(_Value):
    """Dense distribution over all assignments of a variable set.

    The assignment with canonical index ``i`` has probability
    ``nums[i] / den``: non-negative integers over their least common
    denominator, so the numerators sum to ``den`` and share no factor
    with it.  Equality and hashing compare this reduced form.
    ``JointDistribution(variables, probs)`` checks and stores rationals;
    the ``Fraction`` tuple ``probs`` is otherwise built only when read.
    """

    _fields = ("variables", "nums", "den")

    def __init__(self, variables: Iterable[str], probs: Iterable) -> None:
        from fractions import Fraction
        vs = _check_capacity(variables)
        probs = tuple(p if type(p) is Fraction else Fraction(p) for p in probs)
        if len(probs) != 1 << len(vs):
            raise ValueError("probability vector length must be 2**n")
        if any(not 0 <= p.numerator <= p.denominator for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        nums, den = scaled(probs)
        if sum(nums) != den:
            raise ValueError(
                f"probabilities sum to {rational_text(sum(nums), den)}, not 1")
        vars(self).update(variables=vs, nums=tuple(nums), den=den, probs=probs)

    @classmethod
    def _of_table(cls, variables: tuple[str, ...], nums,
                  den: int) -> "JointDistribution":
        """Trusted constructor: ``variables`` sorted and distinct, ``nums``
        non-negative ints in canonical order summing to ``den``.  Only
        reduces them by their gcd with ``den``; checks nothing."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [p // g for p in nums], den // g
        dist = cls.__new__(cls)
        vars(dist).update(variables=variables, nums=tuple(nums), den=den)
        return dist

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        den = self.den
        return tuple(Fraction(p, den) for p in self.nums)

    @staticmethod
    def uniform(variables: Iterable[str]) -> "JointDistribution":
        vs = _check_capacity(variables)
        n = 1 << len(vs)
        return JointDistribution._of_table(vs, (1,) * n, n)

    def restrict(self, subset: Iterable[str]) -> "JointDistribution":
        """Marginalize onto a subset of the variables."""
        sub = _check_capacity(subset)
        nums = [0] * (1 << len(sub))
        for k, p in zip(sub_indices(self.variables, sub), self.nums):
            if p:
                nums[k] += p
        return JointDistribution._of_table(sub, nums, self.den)

    def product(self, other: "JointDistribution") -> "JointDistribution":
        """Product distribution over the disjoint union of variables."""
        overlap = set(self.variables) & set(other.variables)
        if overlap:
            raise ValueError(f"variable sets overlap: {sorted(overlap)}")
        vs = _check_capacity(self.variables + other.variables)
        a, b = self.nums, other.nums
        return JointDistribution._of_table(vs, [
            a[i] * b[j] for i, j in
            zip(sub_indices(vs, self.variables), sub_indices(vs, other.variables))],
            self.den * other.den)

    def rename(self, mapping: Mapping[str, str]) -> "JointDistribution":
        """Relabel variables; the table is re-sorted to the new canonical order."""
        renamed = tuple(mapping.get(v, v) for v in self.variables)
        new_vars = tuple(sorted(renamed))
        if len(set(new_vars)) != len(new_vars):
            raise ValueError("renaming collapses variables")
        # a new assignment read over ``renamed`` is its old canonical index
        return JointDistribution._of_table(new_vars, [
            self.nums[i] for i in sub_indices(new_vars, renamed)], self.den)


def dirac(assignment: Mapping[str, bool]) -> JointDistribution:
    """Point mass on a single assignment."""
    vs = _check_capacity(assignment)
    nums = [0] * (1 << len(vs))
    nums[canonical_index(assignment, vs)] = 1
    return JointDistribution._of_table(vs, nums, 1)


class Cpt(_Value):
    """Conditional probability table: Pr(owner=T | parent assignment).

    The parent assignment with canonical index ``i`` over the sorted
    parent set has entry ``nums[i] / den``: integers over the least
    common denominator of the entries, so equality and hashing compare
    exact values.  ``Cpt(owner, parents, rows)`` takes rationals; the
    ``Fraction`` tuple ``rows`` is otherwise built only when read.
    """

    _fields = ("owner", "parents", "nums", "den")

    def __init__(self, owner: str, parents: Iterable[str], rows: Iterable) -> None:
        from fractions import Fraction
        parents = _check_capacity(parents)
        rows = tuple(r if type(r) is Fraction else Fraction(r) for r in rows)
        if len(rows) != 1 << len(parents):
            raise ValueError(
                f"CPT for {owner} needs {1 << len(parents)} rows, got {len(rows)}")
        nums, den = scaled(rows)
        vars(self).update(owner=owner, parents=parents, nums=tuple(nums),
                          den=den, rows=rows)

    @classmethod
    def _of_table(cls, owner: str, parents: tuple[str, ...], nums,
                  den: int) -> "Cpt":
        """Trusted constructor: ``parents`` sorted and distinct, ``nums``
        ints in canonical order, one per parent assignment, and ``den``
        positive.  Only reduces them by their gcd; checks nothing."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [p // g for p in nums], den // g
        cpt = cls.__new__(cls)
        vars(cpt).update(owner=owner, parents=parents, nums=tuple(nums), den=den)
        return cpt

    @cached_property
    def rows(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        den = self.den
        return tuple(Fraction(p, den) for p in self.nums)


class Violation(_Value):
    """One problem with a network or its document; ``kind`` is
    MissingCptRow, ParentMismatch, NotNormalized, OutOfRange,
    IotaDomainMismatch or ParseError."""

    _fields = ("kind", "node", "message")

    def __init__(self, kind: str, node: str, message: str) -> None:
        vars(self).update(kind=kind, node=node, message=message)


class Gbn(_Value):
    """A Bayesian network whose graph may contain directed cycles.

    Non-initial nodes carry CPTs; the (possibly correlated) distribution
    ``iota`` covers exactly the initial nodes.  When there are no initial
    nodes, ``iota`` is the unique distribution over the empty variable set.
    """

    _fields = ("nodes", "edges", "cpts", "iota")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]],
                 cpts: Mapping[str, Cpt], iota: JointDistribution) -> None:
        vars(self).update(nodes=_check_capacity(nodes), edges=frozenset(edges),
                          cpts=dict(cpts), iota=iota)

    @property
    def initial_nodes(self) -> frozenset[str]:
        targets = {v for (_, v) in self.edges}
        return frozenset(self.nodes) - targets

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """What :meth:`validate` reports, scanned once per network."""
        report: list[Violation] = []
        node_set = set(self.nodes)
        preds: dict[str, set[str]] = {}
        for (u, v) in sorted(self.edges):
            if u not in node_set or v not in node_set:
                report.append(Violation("ParentMismatch", u,
                                        f"edge ({u}, {v}) references unknown node"))
            preds.setdefault(v, set()).add(u)
        init = frozenset(self.nodes).difference(preds)
        non_initial = node_set.intersection(preds)
        for x in sorted(non_initial):
            cpt = self.cpts.get(x)
            if cpt is None:
                report.append(Violation("MissingCptRow", x, "no CPT for non-initial node"))
                continue
            if set(cpt.parents) != preds[x]:
                report.append(Violation(
                    "ParentMismatch", x,
                    f"CPT parents {cpt.parents} differ from predecessors "
                    f"{tuple(sorted(preds[x]))}"))
            nums, den = cpt.nums, cpt.den
            if min(nums) < 0 or max(nums) > den:
                report.extend(
                    Violation("OutOfRange", x, f"CPT row {i} entry {rational_text(p, den)}")
                    for i, p in enumerate(nums) if not 0 <= p <= den)
        for x in sorted(set(self.cpts) - non_initial):
            report.append(Violation("ParentMismatch", x,
                                    "CPT attached to an initial or unknown node"))
        if set(self.iota.variables) != init:
            report.append(Violation(
                "IotaDomainMismatch", ",".join(sorted(init)),
                f"iota covers {self.iota.variables}, initial nodes are {tuple(sorted(init))}"))
        return tuple(report)

    def validate(self) -> list[Violation]:
        return list(self._violations)

    def _require_valid(self) -> None:
        """Raise ValueError when the network has violations."""
        if self._violations:
            raise ValueError(f"invalid network: {list(self._violations)}")

