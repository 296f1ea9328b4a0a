"""Value semantics of the package's immutable classes: frozen fields, and
equality, hashing, repr and pickling over the constructor's fields."""

import copy
import inspect
import pickle
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from fanocheck import (
    CheckStatus,
    Cone,
    CorpusEntry,
    DiamondFile,
    EntryReport,
    Face,
    FaceLattice,
    FanoPolytope,
    Halfspace,
    HodgeDiamond,
    IdentityReport,
    IntPolynomial,
    PinnedValues,
    RunReport,
    ToricAnalysis,
    ToricInvariants,
    analyze,
)
from fanocheck.lattice import _Hull
from fanocheck.value import Value


def _p2() -> FanoPolytope:
    return FanoPolytope(2, ((1, 0), (0, 1), (-1, -1)))


def _analysis() -> ToricAnalysis:
    a = analyze(_p2())
    return ToricAnalysis(a.polytope, a.delta, a.invariants, a.report, dict(a.consistency))


# class name -> a function making a new instance, equal to every other it makes
SAMPLES = {
    "Halfspace": lambda: Halfspace((1, 0), 1),
    "Face": lambda: Face(1, (0, 1)),
    "FaceLattice": lambda: FaceLattice(((Face(0, (0,)), Face(0, (1,))), (Face(1, (0, 1)),))),
    "FanoPolytope": _p2,
    "Cone": lambda: Cone((0, 1), 1, ((1, 0), (0, 1))),
    "_Hull": lambda: _Hull((Halfspace((1, 0), 1),), (0b11,)),
    "IntPolynomial": lambda: IntPolynomial((1, 1, 1)),
    "ToricInvariants": lambda: ToricInvariants(
        n=2, betti=(1, 1, 1), c_n=3, c1_cn1=9, f_vector=(3, 3, 1), edge_interior_total=6
    ),
    "IdentityReport": lambda: IdentityReport(n=2, lhs=Fraction(2), defect=Fraction(0)),
    "HodgeDiamond": lambda: HodgeDiamond(2, ((1, 0, 1), (0, 20, 0), (1, 0, 1))),
    "DiamondFile": lambda: DiamondFile(HodgeDiamond.from_betti((1, 1, 1)), 9, 3),
    "PinnedValues": lambda: PinnedValues(betti=(1, 1, 1), c_n=3),
    "CorpusEntry": lambda: CorpusEntry("P2", _p2()),
    "ToricAnalysis": _analysis,
    "EntryReport": lambda: EntryReport("p2.poly", "toric", CheckStatus.OK, payload={"n": 2}),
    "RunReport": lambda: RunReport((EntryReport("p2.poly", "toric", CheckStatus.OK),)),
}
# These hold a dict, so, as a frozen dataclass with a dict field, they
# compare but do not hash.
UNHASHABLE = {"ToricAnalysis", "EntryReport", "RunReport"}

NAMES = sorted(SAMPLES)


def test_every_value_class_has_a_sample():
    # the imports above load every module of the package that defines one
    assert {cls.__name__ for cls in Value.__subclasses__()} == set(SAMPLES)


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_the_constructor_parameters(name):
    cls = type(SAMPLES[name]())
    assert cls.__name__ == name
    assert tuple(inspect.signature(cls).parameters) == cls._fields


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    obj = SAMPLES[name]()
    slots = [s for s in type(obj).__slots__ if s not in ("__dict__", "__weakref__")]
    for attr in {*slots, *type(obj)._fields, "new_attribute"}:
        before = getattr(obj, attr, None)
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
        assert getattr(obj, attr, None) is before
    assert obj == SAMPLES[name]()


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_objects(name):
    a, b = SAMPLES[name](), SAMPLES[name]()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_a_field_difference_breaks_equality():
    assert Halfspace((1, 0), 1) != Halfspace((1, 0), 2)
    assert FanoPolytope(1, ((1,), (-1,))) != FanoPolytope(1, ((-1,), (1,)))
    assert IdentityReport(n=2, lhs=Fraction(2), defect=Fraction(0)) != IdentityReport(
        n=2, lhs=Fraction(2), defect=Fraction(0), face_count_ok=True
    )


def test_objects_of_different_classes_are_never_equal():
    for x, y in combinations(NAMES, 2):
        assert SAMPLES[x]() != SAMPLES[y]()
    # the same field values in another class, or in a tuple
    assert Halfspace((1, 0), 1) != Face((1, 0), 1)
    assert IntPolynomial((1, 1)) != FaceLattice((1, 1))
    assert Halfspace((1, 0), 1) != ((1, 0), 1)

    class Subclass(Halfspace):
        __slots__ = ()

    assert Subclass((1, 0), 1) != Halfspace((1, 0), 1)


def test_hodge_diamond_equality_ignores_the_derived_sums():
    a, b = SAMPLES["HodgeDiamond"](), SAMPLES["HodgeDiamond"]()
    for derived in ("_even_betti", "_chi_p", "_odd_vanishing", "_defect4"):
        object.__setattr__(b, derived, None)
    assert a == b and hash(a) == hash(b)
    assert repr(b) == "HodgeDiamond(n=2, h=((1, 0, 1), (0, 20, 0), (1, 0, 1)))"
    assert a != HodgeDiamond(2, ((1, 0, 0), (0, 20, 0), (0, 0, 1)))


def test_entry_reports_never_share_a_payload():
    a = EntryReport("a", "toric", CheckStatus.OK)
    b = EntryReport("a", "toric", CheckStatus.OK)
    assert a.payload == b.payload == {}
    assert a.payload is not b.payload
    a.payload["n"] = 2
    assert b.payload == {}


def test_repr_names_the_class_and_fields():
    assert repr(Halfspace((1, 0), 1)) == "Halfspace(normal=(1, 0), offset=1)"
    assert repr(_Hull((), ())) == "_Hull(halfspaces=(), incidences=())"
    assert repr(PinnedValues(c_n=3)) == "PinnedValues(betti=None, c_n=3, c1_cn1=None)"


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_give_equal_objects(name):
    obj = SAMPLES[name]()
    for other in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(other) is type(obj)
        assert other == obj


def test_polytope_caches_its_hull_and_can_be_weakly_referenced():
    P = _p2()
    ref = weakref.ref(P)
    hull = P.hull
    assert P.hull is hull
    with pytest.raises(AttributeError):
        P.hull = None
    assert ref() is P
