"""Assignments, joint distributions, CPTs, and network validation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import make_gbn
from cyclebn.chain import LimStatus
from cyclebn.families import SemanticsFamily
from cyclebn.graph import DiGraph
from cyclebn.linalg import LinearSystem, PolytopeClass
from cyclebn.model import (CapacityError, Cpt, Gbn, JointDistribution,
                           Violation, _Value, assignment_from_index,
                           canonical_index, dirac, parse_rational,
                           rational_text)
from cyclebn.oracle import IndependenceTriple, IterationTrace


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" 1 ") == Fraction(1)


def test_parse_rational_rejects_zero_denominator_and_non_strings():
    for bad in ("1/0", "0/0", 0.5, 1, None, "1e-99999"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def _outcome(parse, text):
    """What ``parse(text)`` returns, with its type, or the text of the
    ValueError it raises."""
    try:
        q = parse(text)
    except ValueError as e:
        return "error", str(e)
    return type(q), q


def _via_fraction(text):
    """The general route: ``Fraction`` parses the stripped text."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


PLAIN_EDGES = ["0", "00", "007", "3/4", "03/004", "6/8", "0/5", "5/1", "1/0",
               "00/0", "9" * 5000, "1/" + "9" * 5000, "9" * 4300 + "/7",
               " 1/2", "1/2 ", "1 / 2", "\t3\n", "+1/2", "-1/2", "1/-2",
               "1_0/3", "1/1_0", "_1", "1__0", "0.25", "-.5", "1.", "1e3",
               "2.5E-2", "1e+2", "٣/٤", "٣", "1/٤", "", "/", "1/", "/2", "1//2",
               "1/2/3", "abc", "0x1", "nan", "inf"]


@pytest.mark.parametrize("text", PLAIN_EDGES, ids=range(len(PLAIN_EDGES)))
def test_parse_rational_matches_fraction_route(text):
    assert _outcome(parse_rational, text) == _outcome(_via_fraction, text)


@given(st.text(alphabet="0123456789/ +-_.٣\t", max_size=12))
def test_parse_rational_matches_fraction_route_on_any_text(text):
    assert _outcome(parse_rational, text) == _outcome(_via_fraction, text)


def test_format_rational():
    # rationals are written from integers, reduced, as ``str`` writes a Fraction
    assert rational_text(3, 4) == "3/4"
    assert rational_text(2, 1) == "2"
    assert rational_text(6, 8) == "3/4"
    assert rational_text(-2, 6) == "-1/3"
    assert rational_text(0, 5) == "0"
    for p, q in ((48, 121), (-9, 3), (10 ** 30, 4 * 10 ** 29)):
        assert rational_text(p, q) == str(Fraction(p, q))
    assert parse_rational(rational_text(48, 121)) == Fraction(48, 121)


def test_canonical_index_msb_first():
    # First-sorted variable is the most significant bit.
    vs = ("Y", "X")
    assert canonical_index({"X": False, "Y": False}, vs) == 0
    assert canonical_index({"X": False, "Y": True}, vs) == 1
    assert canonical_index({"X": True, "Y": False}, vs) == 2
    assert canonical_index({"X": True, "Y": True}, vs) == 3


def test_assignment_round_trip():
    vs = ("A", "B", "C")
    for idx in range(8):
        assert canonical_index(assignment_from_index(idx, vs), vs) == idx


@given(st.integers(1, 6), st.integers(0))
def test_index_round_trip_property(n, seed):
    vs = tuple("ABCDEF"[:n])
    idx = seed % (1 << n)
    assert canonical_index(assignment_from_index(idx, vs), vs) == idx


def test_joint_distribution_validation():
    with pytest.raises(ValueError, match=r"^probabilities sum to 3/4, not 1$"):
        JointDistribution(("X",), (Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ValueError, match=r"^probabilities sum to 2, not 1$"):
        JointDistribution(("X",), (Fraction(1), 1))
    with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
        JointDistribution(("X",), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
        JointDistribution(("X",), (Fraction(-1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match=r"^probability vector length must be 2\*\*n$"):
        JointDistribution(("X", "Y"), (Fraction(1),))
    with pytest.raises(ValueError, match=r"^probability vector length must be 2\*\*n$"):
        JointDistribution((), ())
    with pytest.raises(ValueError, match=r"^duplicate variable names: \('X', 'X'\)$"):
        JointDistribution(("X", "X"), (Fraction(1, 4),) * 4)


def test_trusted_table_equals_the_fraction_distribution():
    probs = (Fraction(1, 10), Fraction(0), Fraction(3, 10), Fraction(3, 5))
    mu = JointDistribution(("X", "Y"), probs)
    assert (mu.nums, mu.den) == ((1, 0, 3, 6), 10)
    # the same table scaled by 6, as an elimination may leave it
    six = JointDistribution._of_table(("X", "Y"), [6, 0, 18, 36], 60)
    assert six == mu and hash(six) == hash(mu)
    assert (six.nums, six.den) == (mu.nums, mu.den)
    assert six.probs == probs
    assert {mu: "found"}[six] == "found"
    assert six != JointDistribution.uniform(("X", "Y"))
    assert six != JointDistribution(("Y", "Z"), probs)
    one = JointDistribution._of_table((), [6], 6)
    assert one == JointDistribution((), (1,)) and one.nums == (1,) and one.den == 1
    assert hash(one) == hash(JointDistribution((), (1,)))


def test_probs_are_built_once_from_the_integers():
    mu = JointDistribution._of_table(("X",), [1, 3], 4)
    assert "probs" not in vars(mu)
    assert mu.probs == (Fraction(1, 4), Fraction(3, 4))
    assert mu.probs is mu.probs
    assert all(type(p) is Fraction for p in mu.probs)
    # rationals given to the constructor are kept as given
    given = (Fraction(1, 4), Fraction(3, 4))
    assert JointDistribution(("X",), given).probs == given
    assert JointDistribution(("X",), (0, 1)).probs == (Fraction(0), Fraction(1))


def test_capacity_cap():
    with pytest.raises(CapacityError):
        JointDistribution.uniform([f"V{i}" for i in range(21)])


def test_uniform_and_dirac():
    u = JointDistribution.uniform(("X", "Y"))
    assert all(p == Fraction(1, 4) for p in u.probs)
    d = dirac({"X": True, "Y": False})
    assert d.probs == (0, 0, 1, 0)


def test_restrict_marginalizes():
    mu = JointDistribution(("X", "Y"),
                           (Fraction(1, 10), Fraction(3, 10),
                            Fraction(3, 10), Fraction(3, 10)))
    assert mu.restrict(("X",)).probs == (Fraction(2, 5), Fraction(3, 5))
    assert mu.restrict(("X", "Y")) == mu
    assert mu.restrict(()).probs == (Fraction(1),)


def test_product_and_rename():
    a = JointDistribution(("X",), (Fraction(1, 4), Fraction(3, 4)))
    b = JointDistribution(("Y",), (Fraction(1, 2), Fraction(1, 2)))
    ab = a.product(b)
    assert ab.variables == ("X", "Y")
    assert (ab.nums, ab.den) == ((1, 1, 3, 3), 8)
    with pytest.raises(ValueError):
        a.product(a)
    renamed = ab.rename({"X": "Z"})
    assert renamed.variables == ("Y", "Z")
    assert (renamed.nums, renamed.den) == ((1, 3, 1, 3), 8)


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
    assert cpt.rows == (Fraction(3, 4), Fraction(1, 2))
    assert (cpt.nums, cpt.den) == ((3, 2), 4)
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


def test_validate_reports_each_fault_with_its_message():
    g = make_gbn(["X", "Y", "Z"], [("X", "Y"), ("Z", "Y"), ("Q", "Z")],
                 [Cpt("Y", ("X",), (Fraction(3, 2), Fraction(-1, 2))),
                  Cpt("Z", (), (Fraction(1),))],
                 JointDistribution.uniform(("X",)))
    assert [(v.kind, v.node, v.message) for v in g.validate()] == [
        ("ParentMismatch", "Q", "edge (Q, Z) references unknown node"),
        ("ParentMismatch", "Y",
         "CPT parents ('X',) differ from predecessors ('X', 'Z')"),
        ("OutOfRange", "Y", "CPT row 0 entry 3/2"),
        ("OutOfRange", "Y", "CPT row 1 entry -1/2"),
        ("ParentMismatch", "Z", "CPT parents () differ from predecessors ('Q',)"),
    ]


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
    assert g.validate()


def test_default_iota_for_closed_network():
    g = make_gbn(["X", "Y"], [("X", "Y"), ("Y", "X")],
                 [Cpt("X", ("Y",), (Fraction(1, 2), Fraction(1, 2))),
                  Cpt("Y", ("X",), (Fraction(1, 2), Fraction(1, 2)))])
    assert g.initial_nodes == frozenset()
    assert g.iota.variables == ()
    assert not g.validate()


F = Fraction

#: Each value type with constructor arguments, in parameter order.
VALUES = [
    (JointDistribution, dict(variables=("B", "A"), probs=("1/4", "0", "3/4", 0))),
    (Cpt, dict(owner="X", parents=["Y"], rows=("1/2", F(1, 3)))),
    (Violation, dict(kind="OutOfRange", node="X", message="CPT row 0 entry 2")),
    (Gbn, dict(nodes=["Y", "X"], edges=[("X", "Y")],
               cpts={"Y": Cpt("Y", ("X",), (F(1, 2), F(1)))},
               iota=JointDistribution(("X",), (F(1, 3), F(2, 3))))),
    (DiGraph, dict(nodes=["b", "a"], edges={("a", "b"), ("b", "b")})),
    (LinearSystem, dict(matrix=[[1, -2], [0, 2]], rhs=(3, 0))),
    (PolytopeClass, dict(kind="point", witness=(F(1), F(0)))),
    (LimStatus, dict(distribution=None, offending_periods=(2,))),
    (SemanticsFamily, dict(kind="mc", status="unique",
                           distributions=(JointDistribution.uniform(("X",)),),
                           notes="n")),
    (IterationTrace, dict(cutset=("X",), steps=((F(1), F(0)),),
                          cesaro=((F(1), F(0)),))),
    (IndependenceTriple, dict(x={"a"}, y=["b"], z=())),
]


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=[c.__name__ for c, _ in VALUES])
def test_value_types_compare_hash_and_freeze_by_their_fields(cls, kwargs):
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a == b and not a != b and a is not b
    if cls is Gbn:            # its ``cpts`` field is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    class Twin(_Value):
        _fields = cls._fields

    twin = Twin.__new__(Twin)
    vars(twin).update({f: getattr(a, f) for f in cls._fields})
    assert a != twin and twin != a and not a == twin
    assert repr(twin).partition("(")[2] == repr(a).partition("(")[2]
    for name in (cls._fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_value_type_defaults():
    assert PolytopeClass("empty") == PolytopeClass(kind="empty", witness=None)
    assert LimStatus(None).offending_periods == ()
    family = SemanticsFamily("cpt", "empty")
    assert (family.distributions, family.notes) == ((), "")


def test_value_fields_are_converted_once():
    g = DiGraph(["b", "a"], [("a", "b")])
    assert g.nodes == ("a", "b") and g.edges == frozenset({("a", "b")})
    assert IndependenceTriple(["a"], "b", ()).y == frozenset({"b"})
    assert LinearSystem([[1]], [2]).rhs == (2,)
    assert JointDistribution(("A",), ("1/2", "1/2")).probs == (F(1, 2),) * 2


def test_violation_repr_in_the_invalid_network_error():
    v = Violation("OutOfRange", "X", "CPT row 0 entry 2")
    assert repr(v) == ("Violation(kind='OutOfRange', node='X', "
                       "message='CPT row 0 entry 2')")
    g = make_gbn(["X"], [], [Cpt("X", (), (F(1, 2),))])
    with pytest.raises(ValueError) as err:
        g._require_valid()
    assert str(err.value) == (
        "invalid network: [Violation(kind='ParentMismatch', node='X', "
        "message='CPT attached to an initial or unknown node'), "
        "Violation(kind='IotaDomainMismatch', node='X', "
        "message=\"iota covers (), initial nodes are ('X',)\")]")
