"""Bit-indexed table code against literal per-assignment definitions.

Every reference below walks the assignments one dict at a time with
``all_assignments``/``assignment_from_index`` and is compared with the
library result for exact equality.
"""

import random
from fractions import Fraction

import pytest

from conftest import rand_joint, random_acyclic_gbn, random_cyclic_gbn
from cyclebn.constraints import (build_cpt_system, build_wcpt_system,
                                 check_consistency)
from cyclebn.inference import chain_rule_dist
from cyclebn.model import (JointDistribution, assignment_from_index,
                           canonical_index, sub_indices)
from cyclebn.oracle import IndependenceTriple, check_independence

ZERO, ONE = Fraction(0), Fraction(1)
VARS = "ABCDEF"


def all_assignments(variables):
    vs = tuple(sorted(variables))
    return [assignment_from_index(idx, vs) for idx in range(1 << len(vs))]


def agrees(b, c):
    return all(b[v] == val for v, val in c.items())


def mass(mu, partial):
    return sum((p for p, b in zip(mu.probs, all_assignments(mu.variables))
                if agrees(b, partial)), ZERO)


def rand_table(rng, variables):
    """Random joint distribution, with zero entries in about half the cases."""
    return rand_joint(rng, variables, smooth=rng.random() < 0.5)


def test_sub_indices_reads_names_in_given_order():
    rng = random.Random(1)
    for _ in range(40):
        vs = list(VARS[:rng.randint(0, 6)])
        rng.shuffle(vs)
        names = [v for v in vs if rng.random() < 0.6]
        got = sub_indices(vs, names)
        assert len(got) == 1 << len(vs)
        for idx, b in enumerate(all_assignments(vs)):
            want = 0
            for v in names:
                want = want << 1 | b[v]
            assert got[idx] == want
    assert sub_indices(("A", "B", "C"), ("C", "A")) == [0, 2, 0, 2, 1, 3, 1, 3]
    with pytest.raises(ValueError, match=r"unknown variables: \['P', 'Q'\]"):
        sub_indices(("A", "B"), ("Q", "A", "P"))


def test_table_operations_match_definitions():
    rng = random.Random(2)
    for _ in range(120):
        vs = VARS[:rng.randint(0, 6)]
        mu = rand_table(rng, vs)
        sub = tuple(v for v in vs if rng.random() < 0.5)
        restricted = mu.restrict(sub)
        assert restricted.variables == sub
        assert restricted.probs == tuple(
            mass(mu, c) for c in all_assignments(sub))

        other = rand_table(rng, "PQR"[:rng.randint(0, 3)])
        prod = mu.product(other)
        for idx, b in enumerate(all_assignments(prod.variables)):
            assert prod.probs[idx] == fraction_at(mu, b) * fraction_at(other, b)

        new_names = list("stuvwx"[:len(vs)])
        rng.shuffle(new_names)
        mapping = {v: w for v, w in zip(vs, new_names) if rng.random() < 0.8}
        renamed = mu.rename(mapping)
        new_vars = tuple(sorted(mapping.get(v, v) for v in vs))
        assert renamed.variables == new_vars
        for idx, p in enumerate(mu.probs):
            b = assignment_from_index(idx, vs)
            c = {mapping.get(v, v): val for v, val in b.items()}
            assert renamed.probs[canonical_index(c, new_vars)] == p
    with pytest.raises(ValueError, match=r"unknown variables: \['Z'\]"):
        mu.restrict(("Z",))


def with_factor(mu, k):
    """``mu`` built by the trusted constructor from its table scaled by k."""
    return JointDistribution._of_table(mu.variables, [k * p for p in mu.nums],
                                       k * mu.den)


def fraction_at(mu, b):
    """mu's ``Fraction`` entry for the restriction of assignment b."""
    return mu.probs[canonical_index({v: b[v] for v in mu.variables}, mu.variables)]


def row_at(cpt, b):
    """The CPT's ``Fraction`` entry for the parents' values in assignment b."""
    return cpt.rows[canonical_index({v: b[v] for v in cpt.parents}, cpt.parents)]


def test_integer_table_operations_equal_fraction_definitions():
    rng = random.Random(6)
    seen = set()
    for i in range(150):
        mu = rand_table(rng, VARS[:i % 5])
        other = rand_table(rng, "PQR"[:rng.randint(0, 3)])
        if i % 2:
            mu, other = with_factor(mu, rng.randint(2, 30)), with_factor(other, 6)
        seen.update(["zeros"] * (0 in mu.nums), ["empty"] * (not mu.variables))
        sub = tuple(v for v in mu.variables if rng.random() < 0.5)
        new_names = list("stuvw"[:len(mu.variables)])
        rng.shuffle(new_names)
        mapping = dict(zip(mu.variables, new_names))
        new_vars = tuple(sorted(new_names))
        prod_vars = tuple(sorted(mu.variables + other.variables))
        literal = [
            (mu.restrict(sub), sub,
             [sum((p for p, b in zip(mu.probs, all_assignments(mu.variables))
                   if agrees(b, c)), ZERO) for c in all_assignments(sub)]),
            (mu.product(other), prod_vars,
             [fraction_at(mu, b) * fraction_at(other, b)
              for b in all_assignments(prod_vars)]),
            (mu.rename(mapping), new_vars,
             [fraction_at(mu, {v: b[mapping[v]] for v in mu.variables})
              for b in all_assignments(new_vars)]),
        ]
        for got, variables, probs in literal:
            want = JointDistribution(variables, probs)
            assert got.variables == variables
            assert got.probs == tuple(probs)
            assert got == want and hash(got) == hash(want)
            assert (got.nums, got.den) == (want.nums, want.den)
    assert seen == {"zeros", "empty"}


def networks():
    """Pairs (network, acyclic?) alternating cyclic and acyclic."""
    rng = random.Random(3)
    return [(random_acyclic_gbn(rng, 5), True) if i % 2
            else (random_cyclic_gbn(rng, 4), False) for i in range(30)]


def literal_systems(g):
    """The rational rows ``[A | b]`` by definition, each with the factor
    the builders multiply it by: (cpt rows, wcpt rows, shared tail rows),
    the factor its CPT's denominator, or, in the tail, iota's
    denominator for the pinning row of each assignment of the initial
    nodes; without initial nodes the one (empty) assignment's row is
    the normalization row."""
    cols = list(all_assignments(g.nodes))
    cpt_rows, wcpt_rows = [], []
    for x in sorted(set(g.nodes) - g.initial_nodes):
        cpt = g.cpts[x]
        for pidx, pr in enumerate(cpt.rows):
            c = assignment_from_index(pidx, cpt.parents)
            cpt_rows.append(([(pr - 1 if b[x] else pr) if agrees(b, c) else ZERO
                              for b in cols] + [ZERO], cpt.den))
        wcpt_rows.append(([row_at(cpt, b) - 1 if b[x] else row_at(cpt, b)
                           for b in cols] + [ZERO], cpt.den))
    init = tuple(sorted(g.initial_nodes))
    tail = []
    for idx in range(1 << len(init)):
        d = assignment_from_index(idx, init)
        tail.append(([ONE if agrees(b, d) else ZERO for b in cols]
                     + [g.iota.probs[idx]], g.iota.den))
    return cpt_rows, wcpt_rows, tail


def test_system_builders_match_definitions():
    # each built row, its rhs included, is exactly its literal row times
    # its factor, a positive integer
    for g, _ in networks():
        cpt_rows, wcpt_rows, tail = literal_systems(g)
        for built, rows in ((build_cpt_system(g), cpt_rows),
                            (build_wcpt_system(g), wcpt_rows)):
            assert [[*r, b] for r, b in zip(built.matrix, built.rhs)] == \
                [[k * x for x in row] for row, k in rows + tail]


def test_built_systems_have_no_redundant_row():
    # a row per CPT row (strong) or per non-initial node (weak), then one
    # pinning row per entry of iota: no separate normalization row
    for g, _ in networks():
        non_initial = sorted(set(g.nodes) - g.initial_nodes)
        pins = len(g.iota.nums)
        assert len(build_cpt_system(g).matrix) == \
            sum(len(g.cpts[x].nums) for x in non_initial) + pins
        assert len(build_wcpt_system(g).matrix) == len(non_initial) + pins


def literal_consistency(mu, g, x, mode):
    cpt = g.cpts[x]
    parent_rows = [(assignment_from_index(i, cpt.parents), r)
                   for i, r in enumerate(cpt.rows)]
    if mode == "strong":
        return all(mass(mu, {**c, x: True}) == mass(mu, c) * r
                   for c, r in parent_rows)
    return mass(mu, {x: True}) == sum(mass(mu, c) * r for c, r in parent_rows)


def test_check_consistency_matches_definition():
    rng = random.Random(4)
    seen = set()
    for g, acyclic in networks():
        mus = [rand_table(rng, g.nodes)]
        if acyclic:
            mus.append(chain_rule_dist(g))
        for mu in mus:
            for x in sorted(set(g.nodes) - g.initial_nodes):
                for mode in ("strong", "weak"):
                    got = check_consistency(mu, g, x, mode)
                    assert got == literal_consistency(mu, g, x, mode)
                    seen.add(got)
    assert seen == {True, False}


def test_chain_rule_distributions_are_consistent():
    for g, acyclic in networks():
        if acyclic:
            mu = chain_rule_dist(g)
            for x in sorted(set(g.nodes) - g.initial_nodes):
                assert check_consistency(mu, g, x, "strong")
                assert check_consistency(mu, g, x, "weak")


def literal_independence(mu, t):
    involved = t.x | t.y | t.z
    for b in all_assignments(involved):
        z = {v: b[v] for v in t.z}
        xz = {v: b[v] for v in t.x | t.z}
        yz = {v: b[v] for v in t.y | t.z}
        if mass(mu, b) * mass(mu, z) != mass(mu, xz) * mass(mu, yz):
            return False
    return True


def test_check_independence_matches_definition():
    rng = random.Random(5)
    seen = set()
    for _ in range(150):
        left = rand_table(rng, "ABC"[:rng.randint(1, 3)])
        right = rand_table(rng, "PQ"[:rng.randint(1, 2)])
        # A product of two tables with zeros: independences across the
        # factors hold, including given conditioning sets of zero mass.
        mu = left.product(right) if rng.random() < 0.6 else \
            rand_table(rng, left.variables + right.variables)
        vs = list(mu.variables)
        rng.shuffle(vs)
        x, y, rest = vs[0], vs[1], vs[2:]
        z = [v for v in rest if rng.random() < 0.5]
        t = IndependenceTriple({x}, {y}, set(z))
        got = check_independence(mu, t)
        assert got == literal_independence(mu, t)
        seen.add(got)
        if any(mass(mu, c) == 0 for c in all_assignments(z)):
            seen.add("zero-mass")
    assert seen == {True, False, "zero-mass"}
    with pytest.raises(ValueError, match=r"unknown variables: \['Z'\]"):
        check_independence(mu, IndependenceTriple({"Z"}, {vs[0]}, set()))
