import pytest

from wehlerk3.field import PrimeField, QQ
from wehlerk3.geometry import ProjectivePoint1, ProjectivePoint2, point1, point2


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_canonical_form_is_scale_invariant(p):
    F = PrimeField(p)
    vecs = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)
            if (a, b, c) != (0, 0, 0)]
    for v in vecs:
        base = point2(F, *v)
        for lam in range(1, p):
            assert point2(F, *(lam * x for x in v)) == base
        lead = next(x for x in base.raw if x != 0)
        assert lead == 1


def test_zero_vector_rejected():
    F = PrimeField(5)
    with pytest.raises(ValueError):
        point2(F, 0, 0, 0)
    with pytest.raises(ValueError):
        point1(F, 0, 0)


def test_points_hash_and_index():
    F = PrimeField(7)
    a = point2(F, 2, 4, 6)
    b = point2(F, 1, 2, 3)
    assert a == b and hash(a) == hash(b)
    assert a[1] == F(2)
    assert tuple(a.raw) == (1, 2, 3)
    s, t = point1(F, 3, 6), point1(F, 1, 2)
    assert s == t and hash(s) == hash(t) and s.raw == (1, 2)
    assert type(a) is ProjectivePoint2 and type(s) is ProjectivePoint1
    assert not isinstance(s, ProjectivePoint2) and not isinstance(a, ProjectivePoint1)
    assert repr(a) == "(1 : 2 : 3)" and repr(s) == "(1 : 2)"


def test_rational_points():
    a = point2(QQ, -2, -2, 2)
    assert a.raw == (1, 1, -1)
    s = point1(QQ, 2, 1)
    from fractions import Fraction
    assert s.raw == (1, Fraction(1, 2))
