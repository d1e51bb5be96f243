import random
from fractions import Fraction

import pytest
from test_engine import _sparse_surface

from wehlerk3.dynamics import lift_pair
from wehlerk3.errors import DegenerateFiber, NotOnSurface
from wehlerk3.field import PrimeField
from wehlerk3.fixtures import W1_ORBIT
from wehlerk3.geometry import point2
from wehlerk3.involution import (
    _cor1_partner,
    fiber_partner_oracle,
    fiber_points,
    fixed_points,
    phi,
    psi,
    sigma,
)
from wehlerk3.surface import (
    WehlerSurface,
    _fiber_restriction,
    degenerate_fibers,
    enumerate_points,
    gh_values,
    ramification_sextic,
    random_surface,
)


def test_sigma_worked_swaps(w1_29, F29):
    pt = lambda *c: point2(F29, *c)
    assert sigma(w1_29, "y", (pt(1, 0, -1), pt(1, 0, 1))) == (pt(1, 1, -1), pt(1, 0, 1))
    assert sigma(w1_29, "y", (pt(1, 1, -1), pt(1, 0, 1))) == (pt(1, 0, -1), pt(1, 0, 1))
    assert sigma(w1_29, "x", (pt(1, 0, 1), pt(1, 0, -1))) == (pt(1, 0, 1), pt(1, -2, -1))


def test_sigma_not_on_surface(w1_29, F29):
    with pytest.raises(NotOnSurface):
        sigma(w1_29, "y", (point2(F29, 1, 1, 1), point2(F29, 1, 0, 1)))


def test_sigma_degenerate_fiber_raises(w1_29, F29):
    # the first projection has a degenerate fiber over (-1,-1,1)
    b = point2(F29, 1, 0, 1)
    a = point2(F29, -1, -1, 1)
    with pytest.raises(DegenerateFiber):
        sigma(w1_29, "x", (a, b))


def test_oracle_matches_sigma_exhaustively():
    p = 11
    s = random_surface(p, seed=3)
    from wehlerk3.surface import enumerate_points
    for (a, b) in enumerate_points(s):
        for side in ("x", "y"):
            got = sigma(s, side, (a, b))
            assert got == fiber_partner_oracle(s, side, (a, b))
            assert sigma(s, side, got) == (a, b)
            # base preservation and surface closure
            if side == "y":
                assert got[1] == b
            else:
                assert got[0] == a
            assert s.contains(got[0].coords, got[1].coords)


def test_oracle_detects_degenerate_fiber(w1_29, F29):
    with pytest.raises(DegenerateFiber):
        fiber_partner_oracle(w1_29, "x", (point2(F29, -1, -1, 1), point2(F29, 1, 0, 1)))


def test_sigma_partner_is_pair_independent():
    # Recompute the partner from every admissible index pair directly and
    # compare with sigma's output.
    p = 11
    s = random_surface(p, seed=6)
    F = s.domain
    from wehlerk3.surface import enumerate_points
    rng = random.Random(0)
    pts = enumerate_points(s)
    for (a, b) in rng.sample(pts, 25):
        want = sigma(s, "y", (a, b))[0]
        lc = s.line_values("y", b.coords)
        g, h = gh_values(s, "y", b.coords)
        for (k, l, m) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            if int(lc[m]) == 0:
                continue
            A, B, C = g[k], h[(k, l)], g[l]
            alpha, beta = a.coords[k], a.coords[l]
            if int(alpha) != 0:
                gamma, delta = A * alpha, -(B * alpha + A * beta)
            else:
                gamma, delta = B, -C
            out = [None, None, None]
            out[k], out[l] = gamma, delta
            out[m] = -(lc[k] * gamma + lc[l] * delta) / lc[m]
            assert point2(F, *out) == want


def test_ramified_point_is_fixed():
    # Points over a root of the branch form are their own partner.
    p = 11
    s = random_surface(p, seed=3)
    fx = fixed_points(s, "y")
    assert fx, "expected at least one ramification point at p=11"
    rs = ramification_sextic(s, "y")
    for P in fx:
        if P.kind != "regular":
            continue
        b = P.b
        assert sigma(s, "y", (P.a, P.b)) == (P.a, P.b)
        val = rs.g.evaluate({"y0": b.coords[0], "y1": b.coords[1], "y2": b.coords[2]})
        assert int(val) == 0


def test_fixed_points_match_direct_scan():
    p = 11
    s = random_surface(p, seed=3)
    from wehlerk3.dynamics import build_phase_space, phase_step
    space = build_phase_space(s)
    for side in ("x", "y"):
        direct = {P.key() for P in space.points() if phase_step(s, P, side) == P}
        got = {P.key() for P in fixed_points(s, side)}
        assert got == direct


def test_branch_form_roots_give_fixed_points():
    # Converse direction: every rational zero of the branch form over a
    # non-degenerate base whose fiber is rational carries a fixed point.
    p = 11
    s = random_surface(p, seed=3)
    rs = ramification_sextic(s, "y")
    fixed_bases = {P.b.raw for P in fixed_points(s, "y")}
    pts = [(0, 0, 1)] + [(0, 1, z) for z in range(p)] + [
        (1, y, z) for y in range(p) for z in range(p)]
    for b in pts:
        val = rs.g.evaluate({"y0": b[0], "y1": b[1], "y2": b[2]})
        if int(val) != 0:
            continue
        fiber = fiber_points(s, "y", tuple(s.domain.element(v) for v in b))
        if len(fiber) == 1:
            # a doubled rational point: must be fixed by the involution
            assert b in fixed_bases


def test_phi_psi_worked_example(w1_29, F29):
    pt = lambda *c: point2(F29, *c)
    start = (pt(-1, -1, 1), pt(1, 0, 1))
    step = phi(w1_29, start)
    assert step == (pt(1, 0, 1), pt(-1, 2, 1))
    assert psi(w1_29, step) == start
    cur = start
    for _ in range(4):
        cur = phi(w1_29, cur)
    assert cur == start


def test_phi_psi_inverse_on_random_points(w1_29):
    from wehlerk3.dynamics import build_phase_space
    space = build_phase_space(w1_29)
    rng = random.Random(1)
    idxs = rng.sample(range(space.size), 100)
    for i in idxs:
        P = space.point(i)
        assert psi(w1_29, phi(w1_29, (P.a, P.b))) == (P.a, P.b)


def test_fiber_points_solves_the_fiber(w1_29, F29):
    pts = fiber_points(w1_29, "y", (F29(1), F29(0), F29(1)))
    assert sorted(p.raw for p in pts) == [(1, 0, 28), (1, 1, 28)]
    line = fiber_points(w1_29, "x", (F29(1), F29(1), F29(28)))
    assert len(line) == 30  # whole line: degenerate fiber


# -- the scalar swap on plain residues ---------------------------------------------


def test_qq_sigma_on_the_printed_orbit(w1_qq, w1_29, F29):
    # The Vieta swap over QQ at the four printed W1 orbit points: six plain
    # swaps pinned to their outputs and to sigma over F_29, two over a center.
    want = {
        (0, "y"): ((1, 0, -1), (1, 0, 1)),
        (1, "x"): ((1, 0, 1), (1, 0, -1)),
        (1, "y"): ((1, 1, -1), (1, -2, -1)),
        (2, "y"): ((1, 0, 1), (1, 0, -1)),
        (3, "x"): ((1, 0, -1), (1, 0, 1)),
        (3, "y"): ((1, 1, 1), (1, -2, 1)),
    }
    for i, P in enumerate(W1_ORBIT):
        for side in ("x", "y"):
            if (i, side) not in want:
                with pytest.raises(DegenerateFiber):
                    sigma(w1_qq, side, P)
                continue
            got = sigma(w1_qq, side, P)
            assert tuple(q.raw for q in got) == want[(i, side)]
            assert all(isinstance(c, Fraction) for q in got for c in q.coords)
            reduced = tuple(point2(F29, *(F29(c) for c in q.coords)) for q in got)
            assert reduced == sigma(w1_29, side, P)
    assert sorted(i for i in range(4) if (i, "x") not in want) == [0, 2]


def test_scalar_swap_matches_the_oracle_on_every_branch():
    # Every point and side of sparse surfaces whose bases reach all three
    # SWAP_PAIRS choices (l_2 != 0; l_2 = 0 != l_1; l_2 = l_1 = 0), swapped by
    # _cor1_partner from the points' residues and from negative ints, against
    # the oracle.
    used = set()
    for p, seed in ((5, 4), (7, 9)):
        s = _sparse_surface(p, seed)
        for (a, b) in enumerate_points(s):
            for side in ("x", "y"):
                base, moving = (a, b) if side == "x" else (b, a)
                try:
                    partner = _cor1_partner(s, side, base.coords, moving.coords)
                except DegenerateFiber:
                    assert _fiber_restriction(s, side, base.coords)[0] != "finite"
                    continue
                ints = [tuple(v - p for v in q.raw) for q in (base, moving)]
                assert _cor1_partner(s, side, *ints) == partner
                got = point2(s.domain, *partner)
                assert fiber_partner_oracle(s, side, (a, b)) == (
                    (got, b) if side == "y" else (a, got))
                lc = s.line_values(side, base.coords)
                used.add(next(m for m in (2, 1, 0) if lc[m] != 0))
    assert used == {0, 1, 2}


def test_scalar_swap_rejects_a_point_off_the_fiber_line(F29):
    # L = x0*y2 and Q = x0^2*y0^2: over the base (1 : 0 : 0), l = (0, 0, 1),
    # so only the pair (k, l) = (0, 1) is usable, and (0 : 0 : 1), off the
    # line y2 = 0, has y0 = y1 = 0 there.  The fiber itself is the double
    # point (0 : 1 : 0).
    s = WehlerSurface.from_terms(F29, [((0, 2), 1)], [((0, 0, 0, 0), 1)])
    with pytest.raises(NotOnSurface, match="not on the fiber line"):
        _cor1_partner(s, "x", (1, 0, 0), (0, 0, 1))
    assert point2(F29, *_cor1_partner(s, "x", (1, 0, 0), (0, 1, 0))) == point2(F29, 0, 1, 0)


def test_scalar_swap_reports_a_degenerate_fiber_before_a_point_off_it(w1_29):
    # Over w1_29's degenerate x-base (-1 : -1 : 1), l = (-1, -1, 1) != 0 and
    # Q vanishes on the whole line: a moving point on that line and one off
    # it, (0 : 0 : 1) with l.y = 1, both raise DegenerateFiber.
    base = (-1, -1, 1)
    assert _fiber_restriction(w1_29, "x", base)[0] == "line"
    assert w1_29.contains(base, (1, 0, 1)) and not w1_29.contains(base, (0, 0, 1))
    for moving in ((1, 0, 1), (0, 0, 1)):
        with pytest.raises(DegenerateFiber):
            _cor1_partner(w1_29, "x", base, moving)


def test_scalar_swap_reports_a_conic_fiber_for_every_moving_point():
    # A conic fiber's base has l = 0: no SWAP_PAIRS triple is usable, and
    # every moving point, on the surface or not, raises DegenerateFiber.
    s = _sparse_surface(7, 4)
    tbl = s.engine().table
    base = next(d.base.coords for d in degenerate_fibers(s, "x") if d.kind == "conic")
    assert s.line_values("x", base) == (0, 0, 0)
    movers = [tuple(pt) for pt in tbl.pts.tolist()]
    assert any(s.contains(base, b) for b in movers)
    for moving in movers:
        with pytest.raises(DegenerateFiber):
            _cor1_partner(s, "x", base, moving)


def test_phi_and_psi_reject_a_start_off_the_surface(F29):
    # ((1 : 0 : 0), (0 : 0 : 1)) is not on this surface, yet the x swap of
    # its lifted point used to find a partner through a later SWAP_PAIRS
    # choice; the lift itself now refuses it.
    s = WehlerSurface.from_terms(
        F29, [((0, 0), 1), ((0, 2), 1), ((1, 1), 1), ((2, 1), 1)],
        [((0, 0, 1, 1), 1), ((1, 1, 0, 2), 1), ((2, 2, 2, 2), 1)])
    start = ((1, 0, 0), (0, 0, 1))
    assert not s.contains(*start)
    for step in (lift_pair, lambda s, a, b: phi(s, (a, b)), lambda s, a, b: psi(s, (a, b))):
        with pytest.raises(NotOnSurface, match="does not satisfy"):
            step(s, *start)
