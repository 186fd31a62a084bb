"""Value semantics of the slotted record types: equality within one class
only, equal hashes for equal values, immutability, repr text, and the
constructors' arguments, defaults and errors."""

import re
import sys
from fractions import Fraction

import pytest

from youngfock.conversion import LinearInZ
from youngfock.fock import MayaState, VACUUM_STATE, boson_moves
from youngfock.measures import MeasureSpec, MiwaParams, WeightTable
from youngfock.operators import Bilinear, KerovParams, MVirasoro, VirasoroParams
from youngfock.partitions import HalfInt, Partition, partitions_of
from youngfock.repstructure import DecompositionReport

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)

# (instance, an equal instance built another way, a different instance, repr)
FROZEN = [
    (KerovParams(HALF, THIRD), KerovParams(w=THIRD, z=HALF), KerovParams(HALF),
     "KerovParams(z=Fraction(1, 2), w=Fraction(1, 3))"),
    (VirasoroParams(HALF, THIRD), VirasoroParams(gamma=THIRD, alpha=HALF), VirasoroParams(),
     "VirasoroParams(alpha=Fraction(1, 2), gamma=Fraction(1, 3))"),
    (Bilinear(2, (HALF, 1)), Bilinear(k=2, weight=(HALF, 1), offset=Fraction(0)), Bilinear(-2, (HALF, 1)),
     "Bilinear(k=2, weight=(Fraction(1, 2), 1), offset=Fraction(0, 1))"),
    (MVirasoro(3, 1, HALF, THIRD), MVirasoro(order=3, k=1, alpha=HALF, gamma=THIRD),
     MVirasoro(3, 1, HALF, 0), "MVirasoro(order=3, k=1, alpha=Fraction(1, 2), gamma=Fraction(1, 3))"),
    (LinearInZ(HALF, 2), LinearInZ(b=2, a=HALF), LinearInZ(2, HALF),
     "LinearInZ(a=Fraction(1, 2), b=2)"),
    (MayaState((3, 1), (-1,)), MayaState(below=(-1,), above=(3, 1)), MayaState((3,), (-1,)),
     "MayaState(above=(3, 1), below=(-1,))"),
]


@pytest.mark.parametrize("a, same, other, text", FROZEN, ids=[type(row[0]).__name__ for row in FROZEN])
def test_frozen_value_semantics(a, same, other, text):
    assert a == same and not a != same and hash(a) == hash(same)
    assert a != other and a != text and a != None  # noqa: E711
    assert {a: 1}[same] == 1
    assert repr(a) == repr(same) == text
    for name in re.findall(r"(\w+)=", text):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        a.extra = 0


def test_same_fields_in_another_class_are_not_equal():
    assert KerovParams(HALF, THIRD) != VirasoroParams(HALF, THIRD)
    assert KerovParams() != VirasoroParams() and LinearInZ(HALF, THIRD) != KerovParams(HALF, THIRD)


def test_defaults():
    assert KerovParams() == KerovParams(Fraction(0), Fraction(0))
    assert VirasoroParams(HALF) == VirasoroParams(HALF, Fraction(0))
    assert Bilinear(0, (1,)).offset == 0 and MayaState() == VACUUM_STATE
    with pytest.raises(TypeError):
        MVirasoro(3, 1, HALF)
    with pytest.raises(TypeError):
        LinearInZ(HALF)


def test_maya_state_charge_and_hash_are_set_once():
    s = MayaState((5, 3, 1), (-3,))
    assert s.charge == 2 and MayaState((), (-1, -5)).charge == -2
    assert hash(s) == hash(((5, 3, 1), (-3,)))  # the tuple hash a field-wise record had
    with pytest.raises(AttributeError):
        s.charge = 0


@pytest.mark.parametrize("above, below, message", [
    ((2,), (), "bad occupied position double 2"),
    ((-1,), (), "bad occupied position double -1"),
    ((), (1,), "bad vacated position double 1"),
    ((), (-4,), "bad vacated position double -4"),
    ((1, 3), (), "above must be sorted descending"),
    ((), (-3, -1), "below must be sorted descending"),
])
def test_maya_state_rejects_bad_doubles(above, below, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MayaState(above, below)


def test_maya_state_rejects_bad_doubles_on_every_call():
    # a failed build caches nothing, and a good one does not vouch for a bad one
    MayaState((3, 1), (-1,))
    for _ in range(3):
        with pytest.raises(ValueError, match="^above must be sorted descending$"):
            MayaState((1, 3), (-1,))
        with pytest.raises(ValueError, match="^bad vacated position double -2$"):
            MayaState((3, 1), (-2,))


def test_equal_states_are_one_object():
    # interning is only a speed-up, so `is` appears here and nowhere in src/
    for n in range(6):
        for lam in partitions_of(n):
            st = MayaState.from_partition(lam)
            assert MayaState(st.above, st.below) is st
            assert MayaState(below=st.below, above=st.above) is st
            assert MayaState.from_partition(lam) is st
            for d in st.above + tuple(range(-1, -2 * n - 3, -2)):
                if st._occupied_d(d):
                    _, mid = st.remove(HalfInt(d))
                    assert mid.insert(HalfInt(d))[1] is st
            for k in (-2, -1, 1, 2):
                for new, _, _ in boson_moves(k, st):
                    assert MayaState.from_partition(new.to_partition()) is new


def test_a_state_built_after_every_cache_is_cleared_equals_the_old_one():
    st = MayaState.from_partition(Partition((2, 1)))
    for name, mod in list(sys.modules.items()):
        if name.startswith("youngfock"):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
    fresh = MayaState()
    assert fresh is not VACUUM_STATE
    assert fresh == VACUUM_STATE and hash(fresh) == hash(VACUUM_STATE)
    again = MayaState.from_partition(Partition((2, 1)))
    assert again is not st and again == st and {st: 1}[again] == 1


def test_constructor_errors():
    with pytest.raises(ValueError, match="^order must be at least 1$"):
        MVirasoro(0, 1, HALF, THIRD)
    with pytest.raises(ValueError, match="offset"):
        Bilinear(1, (1,), HALF)


def test_bilinear_equality_ignores_the_cleared_fields():
    a, b = Bilinear(1, (HALF, THIRD)), Bilinear(1, (HALF, THIRD))
    assert (a.den, a._g) == (6, (1, 3))
    object.__setattr__(b, "den", 12)
    object.__setattr__(b, "_g", (2, 6))
    object.__setattr__(b, "_offset", 1)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "den" not in repr(a) and "_g" not in repr(a)


def test_miwa_params_fresh_dicts():
    a, b = MiwaParams(), MiwaParams()
    a.x[1] = HALF
    assert b.x == {} and a.y is not b.y
    given = {1: HALF, 2: 0}
    p = MiwaParams(given, y={"3": THIRD})
    assert (p.x, p.y) == ({1: HALF}, {3: THIRD}) and p.x is not given
    with pytest.raises(ValueError, match="Miwa index 0"):
        MiwaParams(x={0: 1})


def test_measure_spec_defaults():
    params = MiwaParams({1: 1}, {1: 1})
    spec = MeasureSpec("virasoro", params)
    assert (spec.kind, spec.params, spec.kerov, spec.truncation) == ("virasoro", params, KerovParams(), 0)
    assert (spec.m_order, spec.gamma) == (None, None)
    m = MeasureSpec(kind="m-virasoro", params=params, kerov=KerovParams(HALF), truncation=3)
    assert (m.kerov, m.truncation, m.m_order, m.gamma) == (KerovParams(HALF), 3, 2, 0)
    m4 = MeasureSpec("m-virasoro", params, KerovParams(), 0, 4, THIRD)
    assert (m4.m_order, m4.gamma) == (4, THIRD)
    with pytest.raises(ValueError, match="unknown measure kind"):
        MeasureSpec("plancherel", params)
    with pytest.raises(ValueError, match="truncation"):
        MeasureSpec("schur", params, truncation=-1)
    with pytest.raises(ValueError, match="fixes"):
        MeasureSpec("schur", params, gamma=THIRD)


def test_mutable_records_keep_their_fields():
    weights = {Partition(): Fraction(1)}
    t = WeightTable("schur", 0, weights, Fraction(1))
    assert (t.kind, t.degree, t.weights, t.z_trunc) == ("schur", 0, weights, 1)
    r = DecompositionReport(case="generic", z=HALF, w=THIRD, relations=[], per_degree=[], notes=["n"])
    assert r.to_json() == {"case": "generic", "z": "1/2", "w": "1/3", "relations": [],
                           "per_degree": [], "notes": ["n"]}
