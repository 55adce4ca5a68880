"""Assignments, joint distributions, CPTs, and network validation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclebn.model import (CapacityError, Cpt, Gbn, JointDistribution,
                           all_assignments, assignment_from_index,
                           canonical_index, dirac, format_rational, make_gbn,
                           parse_rational, sums_to_one)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" 1 ") == Fraction(1)


def test_parse_rational_rejects_zero_denominator_and_non_strings():
    for bad in ("1/0", "0/0", 0.5, 1, None):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_rational():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(2)) == "2"
    assert parse_rational(format_rational(Fraction(48, 121))) == Fraction(48, 121)


def test_canonical_index_msb_first():
    # First-sorted variable is the most significant bit.
    assert canonical_index({"X": False, "Y": False}) == 0
    assert canonical_index({"X": False, "Y": True}) == 1
    assert canonical_index({"X": True, "Y": False}) == 2
    assert canonical_index({"X": True, "Y": True}) == 3


def test_assignment_round_trip():
    vs = ("A", "B", "C")
    for idx in range(8):
        assert canonical_index(assignment_from_index(idx, vs), vs) == idx


def test_all_assignments_order():
    asgs = list(all_assignments(("X", "Y")))
    assert [canonical_index(a) for a in asgs] == [0, 1, 2, 3]


@given(st.integers(1, 6), st.integers(0))
def test_index_round_trip_property(n, seed):
    vs = tuple("ABCDEF"[:n])
    idx = seed % (1 << n)
    assert canonical_index(assignment_from_index(idx, vs), vs) == idx


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution(("X",), (Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ValueError):
        JointDistribution(("X",), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        JointDistribution(("X", "Y"), (Fraction(1),))


def test_sums_to_one_is_exact():
    assert sums_to_one([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
    assert sums_to_one([Fraction(1)])
    assert not sums_to_one([Fraction(1, 3), Fraction(1, 3)])
    assert not sums_to_one([Fraction(1, 2), Fraction(1, 2), Fraction(1, 10**30)])
    assert not sums_to_one([])


def test_capacity_cap():
    with pytest.raises(CapacityError):
        JointDistribution.uniform([f"V{i}" for i in range(21)])


def test_uniform_and_dirac():
    u = JointDistribution.uniform(("X", "Y"))
    assert all(p == Fraction(1, 4) for p in u.probs)
    d = dirac({"X": True, "Y": False})
    assert d.probs == (0, 0, 1, 0)
    assert d.prob({"X": True, "Y": False}) == 1


def test_restrict_marginalizes():
    mu = JointDistribution(("X", "Y"),
                           (Fraction(1, 10), Fraction(3, 10),
                            Fraction(3, 10), Fraction(3, 10)))
    assert mu.restrict(("X",)).probs == (Fraction(2, 5), Fraction(3, 5))
    assert mu.restrict(("X", "Y")) == mu
    assert mu.restrict(()).probs == (Fraction(1),)


def test_partial_prob():
    mu = JointDistribution(("X", "Y"),
                           (Fraction(1, 10), Fraction(3, 10),
                            Fraction(3, 10), Fraction(3, 10)))
    assert mu.partial_prob({"Y": True}) == Fraction(3, 5)
    assert mu.partial_prob({}) == 1
    with pytest.raises(ValueError):
        mu.partial_prob({"Z": True})


def test_product_and_rename():
    a = JointDistribution(("X",), (Fraction(1, 4), Fraction(3, 4)))
    b = JointDistribution(("Y",), (Fraction(1, 2), Fraction(1, 2)))
    ab = a.product(b)
    assert ab.prob({"X": True, "Y": False}) == Fraction(3, 8)
    with pytest.raises(ValueError):
        a.product(a)
    renamed = ab.rename({"X": "Z"})
    assert renamed.variables == ("Y", "Z")
    assert renamed.prob({"Z": True, "Y": False}) == Fraction(3, 8)


@given(st.lists(st.integers(0, 5), min_size=4, max_size=4))
def test_restrict_preserves_mass(weights):
    total = sum(weights) or 1
    if sum(weights) == 0:
        weights = [1, 0, 0, 0]
    mu = JointDistribution(("X", "Y"),
                           tuple(Fraction(w, total) for w in weights))
    assert sum(mu.restrict(("Y",)).probs) == 1


def test_cpt_row_orientation():
    # rows[i] = Pr(owner=T | parent assignment with canonical index i)
    cpt = Cpt("X", ("Y",), (Fraction(3, 4), Fraction(1, 2)))
    assert cpt.prob_true({"Y": False}) == Fraction(3, 4)
    assert cpt.prob(False, {"Y": True}) == Fraction(1, 2)
    with pytest.raises(ValueError):
        Cpt("X", ("Y", "Z"), (Fraction(1, 2),))


def test_validate_good_network():
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (Fraction(1, 2), Fraction(1, 2)))],
                 JointDistribution(("X",), (Fraction(1, 4), Fraction(3, 4))))
    assert g.validate() == []
    assert g.initial_nodes == {"X"}


def test_validate_missing_cpt():
    g = Gbn(("X", "Y"), frozenset({("X", "Y")}), {},
            JointDistribution(("X",), (Fraction(1), Fraction(0))))
    kinds = {v.kind for v in g.validate()}
    assert "MissingCptRow" in kinds


def test_validate_parent_mismatch():
    g = make_gbn(["X", "Y", "Z"], [("X", "Y"), ("Z", "Y")],
                 [Cpt("Y", ("X",), (Fraction(1, 2), Fraction(1, 2)))],
                 JointDistribution.uniform(("X", "Z")))
    kinds = {v.kind for v in g.validate()}
    assert "ParentMismatch" in kinds


def test_validate_iota_domain_mismatch():
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (Fraction(1, 2), Fraction(1, 2)))],
                 JointDistribution(("Y",), (Fraction(1), Fraction(0))))
    kinds = {v.kind for v in g.validate()}
    assert "IotaDomainMismatch" in kinds


def test_validate_cpt_on_initial_node():
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (Fraction(1, 2), Fraction(1, 2))),
                  Cpt("X", (), (Fraction(1, 2),))],
                 JointDistribution(("X",), (Fraction(1), Fraction(0))))
    assert not g.is_valid()


def test_default_iota_for_closed_network():
    g = make_gbn(["X", "Y"], [("X", "Y"), ("Y", "X")],
                 [Cpt("X", ("Y",), (Fraction(1, 2), Fraction(1, 2))),
                  Cpt("Y", ("X",), (Fraction(1, 2), Fraction(1, 2)))])
    assert g.initial_nodes == frozenset()
    assert g.iota.variables == ()
    assert g.is_valid()
