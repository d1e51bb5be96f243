"""Points, line parameters and surface coefficients hold plain residues.

Over F_p every coordinate and coefficient is an int in [0, p), over QQ a
Fraction; no FieldElement is stored in the data model.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from wehlerk3.blowup import chart_for, exceptional_points, ramification_prime, resolve_s
from wehlerk3.dynamics import build_phase_space, cycle_decomposition, orbit
from wehlerk3.errors import ZeroForm, ZeroInverse
from wehlerk3.field import QQ, PrimeField
from wehlerk3.fixtures import w1_orbit_points, w1_surface
from wehlerk3.geometry import point1, point2
from wehlerk3.surface import (
    WehlerSurface,
    degenerate_fibers,
    enumerate_points,
    random_surface,
    serialize_surface,
    table_points,
)


def _residues(values, p):
    return all(type(v) is int and 0 <= v < p for v in values)


def _phase_residues(P, p):
    params = [s for s in (P.sx, P.sy) if s is not None]
    return all(_residues(q, p) and q.raw == q.coords for q in (P.a, P.b, *params))


def test_points_parameters_and_coefficients_over_f_p_are_ints(w1_29):
    p = 29
    F = PrimeField(p)
    assert _residues(point2(F, 3, -4, 100), p) and _residues(point1(F, -2, 5), p)
    assert _residues([v for row in w1_29.a + w1_29.b for v in row], p)
    assert all(_residues(a, p) and _residues(b, p) for a, b in enumerate_points(w1_29))
    assert _residues(table_points(w1_29, [0, 30, 870])[2], p)
    for side in ("x", "y"):
        for info in degenerate_fibers(w1_29, side):
            assert _residues(info.base, p)
            chart = chart_for(w1_29, side, info.base)
            for bp in exceptional_points(chart):
                assert _residues(bp.s, p) and _residues(bp.moving, p)
                s = resolve_s(chart, bp.moving)
                assert s == bp.s and _residues(s, p)
            assert all(_residues(s, p) for s, _ in ramification_prime(chart).rational_roots())
    space = build_phase_space(w1_29)
    assert all(_phase_residues(P, p) for P in space.points())
    path = orbit(w1_29, w1_orbit_points(p)[0], 8)
    assert all(_phase_residues(P, p) for P in path)


def test_points_and_coefficients_over_qq_are_fractions(w1_qq):
    assert all(type(v) is Fraction for v in point2(QQ, 2, -4, 6))
    assert all(type(v) is Fraction for row in w1_qq.a + w1_qq.b for v in row)
    for info in degenerate_fibers(w1_qq, "x"):
        assert all(type(v) is Fraction for v in info.base)


@pytest.mark.parametrize("p", [5, 29, 101])
def test_elements_negative_and_unreduced_ints_give_one_point(p):
    F = PrimeField(p)
    want = point2(F, 2, 3, 4)
    assert want.coords == (1, 3 * pow(2, -1, p) % p, 2)
    assert point2(F, F(2), F(3), F(4)) == want
    assert point2(F, 2 - p, 3 - 5 * p, 4 - p * p) == want
    assert point2(F, 2 + p, 3 + 7 * p, 4 + p ** 3) == want
    assert point2(F, 4, 6, 8) == want
    assert point2(F, Fraction(1), Fraction(3, 2), 2) == want
    assert point1(F, -1, F(2)) == point1(F, p - 1, 2) == point1(F, 1, p - 2)
    with pytest.raises(ValueError):
        point2(F, 0, p, -p)
    with pytest.raises(ValueError):
        point2(F, PrimeField(3)(1), 0, 0)  # an element of another field
    with pytest.raises(ZeroInverse):
        point2(F, Fraction(1, p), 1, 1)


def test_zero_forms_are_rejected_after_reduction():
    F = PrimeField(7)
    ones = [[1] * 6 for _ in range(6)]
    with pytest.raises(ZeroForm):
        WehlerSurface(F, [[7, 0, -14], [0, 0, 0], [0, 0, 0]], ones)
    with pytest.raises(ZeroForm):
        WehlerSurface(F, [[1] * 3] * 3, [[0, 7, -7, 0, 0, 0]] + [[0] * 6] * 5)
    with pytest.raises(ZeroForm):
        WehlerSurface(QQ, [[0] * 3] * 3, ones)
    s = WehlerSurface(F, [[8, 0, -1], [0, 0, 0], [0, 0, 0]], ones)
    assert s.a[0] == (1, 0, 6)
    assert serialize_surface(s).splitlines()[1:3] == ["L 0 0 1", "L 0 2 6"]


@pytest.mark.parametrize("make, digest", [
    (lambda: w1_surface(29), "5ab9ada27c6e715d"),
    (lambda: random_surface(29, 4, mode="degenerate"), "0bfbd8e179c2a28d"),
], ids=["w1_29", "degenerate_p29_seed4"])
def test_census_json_is_unchanged(make, digest):
    blob = json.dumps(cycle_decomposition(make()).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest
