import hashlib
import re

import numpy as np
import pytest
from test_engine import SMALL_P_SURFACES, _sparse_surface

from wehlerk3._engine import PAIRS, PlaneTable, gh_formula, pair_getter
from wehlerk3.blowup import (
    PENCIL_VARS,
    BinaryForm,
    BlowupChart,
    BoundaryPoint,
    _exceptional_form,
    _stripped_rows,
    build_chart,
    chart_for,
    exceptional_points,
    line_parameters,
    ramification_prime,
    resolve_s,
    sigma_extended,
)
from wehlerk3.errors import (
    AmbiguousS,
    InexactQuotient,
    NoRationalS,
    NotDegenerate,
    NotOnSurface,
)
from wehlerk3.field import QQ, PrimeField
from wehlerk3.fixtures import w1_surface
from wehlerk3.geometry import point1, point2
from wehlerk3.involution import fiber_points
from wehlerk3.poly import SparsePoly
from wehlerk3.surface import (
    XVARS,
    YVARS,
    _side_vars,
    coefficient_polys,
    degenerate_fibers,
    parse_surface,
    ramification_sextic,
    random_surface,
    serialize_surface,
)

# The accepted surfaces whose census raises NonBijective (tests/test_dynamics.py).
NON_BIJECTIVE = ((5, 75), (5, 93), (7, 35), (7, 40), (7, 133), (11, 133))


@pytest.fixture(scope="module")
def chart29(w1_29, F29):
    return build_chart(w1_29, "x", point2(F29, -1, -1, 1))


def test_binary_form_basics():
    f = BinaryForm(29, [4, 19, 19])  # 4*(7 s0^2 + 12 s0 s1 + 12 s1^2) mod 29
    assert f.degree == 2
    assert f(1, 0) == 4
    assert f.order_at(1, 0) == 0
    g = BinaryForm(29, [0, 0, 1])  # s1^2
    assert g.order_at(1, 0) == 2
    assert g.order_at(0, 1) == 0
    # s0^2 (3 s0 + 5 s1) has coefficient rows [3, 5, 0, 0]
    k, stripped = BinaryForm(29, [3, 5, 0, 0]).strip_power_of_s0()
    assert k == 2 and stripped.coeffs == [3, 5]


def test_chart_construction(chart29):
    assert chart29.e == 1
    assert chart29.t1 == 1
    assert chart29.dehom_index == 0
    # dividing once more would kill the system
    text = chart29.debug_dump()
    assert "G'0" in text


def test_chart_requires_degenerate_center(w1_29, F29):
    for side, center in (("x", (1, 0, 1)), ("y", (-1, -1, 1))):
        with pytest.raises(NotDegenerate):
            build_chart(w1_29, side, point2(F29, *center))


def test_build_chart_succeeds_exactly_at_degenerate_bases(w1_29):
    surfaces = [w1_29, random_surface(29, 0, mode="degenerate")]
    surfaces += [_sparse_surface(p, seed) for p in (5, 7) for seed in range(6)]
    outcomes = {"chart": 0, "not degenerate": 0}
    for s in surfaces:
        for side in ("x", "y"):
            degenerate = {d.base.raw for d in degenerate_fibers(s, side)}
            for row in PlaneTable(s.p).pts.tolist():
                try:
                    build_chart(s, side, row)
                except NotDegenerate:
                    assert tuple(row) not in degenerate
                    outcomes["not degenerate"] += 1
                else:
                    assert tuple(row) in degenerate
                    outcomes["chart"] += 1
    assert outcomes == {"chart": 192, "not degenerate": 4348}


def test_generic_parameter_has_two_roots(chart29):
    # Away from finitely many parameters the line meets the fiber in two
    # rational points or none (a conjugate pair); this chart has no
    # ramified line, which would carry a single point.
    counts = [len(chart29.points_at(s)) for s in line_parameters(chart29.p)]
    assert len(counts) == 30
    assert set(counts) == {0, 2}
    assert counts.count(2) == 15  # each line carries 0 or 2 of the 30 fiber points


def test_resolve_s_worked_example(chart29, F29):
    s = resolve_s(chart29, point2(F29, 1, 0, 1))
    assert s == point1(F29, 2, 1)
    partner_s = resolve_s(chart29, point2(F29, -1, 2, 1))
    assert partner_s == s


def test_resolve_s_roundtrip(chart29):
    for s in [(1, 5), (1, 28), (0, 1)]:
        for pt in chart29.points_at(s):
            assert resolve_s(chart29, pt).raw == s


def test_resolve_s_rejects_off_fiber_points(chart29, F29):
    with pytest.raises(NotOnSurface):
        resolve_s(chart29, point2(F29, 1, 0, 2))


def test_exceptional_points_cover_the_fiber(chart29, w1_29, F29):
    eps = exceptional_points(chart29)
    assert len(eps) == 30
    fiber = {p.raw for p in fiber_points(w1_29, "x", chart29.center.coords)}
    assert {bp.moving.raw for bp in eps} <= fiber
    assert {bp.moving.raw for bp in eps} == fiber  # all points carry a line here


def test_sigma_extended_worked_swap(chart29, F29):
    s = point1(F29, 2, 1)
    bp = BoundaryPoint("x", chart29.center, s, point2(F29, 1, 0, 1))
    out = sigma_extended(chart29, bp)
    assert out.moving == point2(F29, -1, 2, 1)
    assert out.s == bp.s and out.center == bp.center
    assert sigma_extended(chart29, out).moving == bp.moving


def test_sigma_extended_involution_everywhere(chart29):
    for bp in exceptional_points(chart29):
        out = sigma_extended(chart29, bp)
        assert out.s == bp.s
        back = sigma_extended(chart29, out)
        assert back.moving == bp.moving


def test_vieta_relation_on_boundary_pairs(chart29):
    # The pair of roots on each line satisfies the projective relation
    # [m_k m'_k, m_k m'_l + m_l m'_k, m_l m'_l] = [A, -B, C] for every
    # usable index pair of the stripped chart quadratic.
    p = chart29.p
    for s in line_parameters(p):
        pts = chart29.points_at(s)
        if not pts:
            continue
        m1 = pts[0].raw
        m2 = pts[-1].raw  # equals m1 for a ramified line
        for (k, l) in ((0, 1), (0, 2), (1, 2)):
            triple = chart29.pair_triple((k, l), s)
            if triple is None:
                continue
            A, B, C = triple
            u = (m1[k] * m2[k] % p, (m1[k] * m2[l] + m1[l] * m2[k]) % p,
                 m1[l] * m2[l] % p)
            v = (A, -B % p, C)
            # projective equality: cross products vanish
            assert all(
                (u[i] * v[j] - u[j] * v[i]) % p == 0
                for i in range(3) for j in range(3))


def test_ramification_prime_golden(chart29):
    rp = ramification_prime(chart29)
    # over Q the stripped form is 4*(7 s0^2 + 12 s0 s1 + 12 s1^2); mod 29
    # that reads (28, 48, 48) = (28, 19, 19).
    assert rp.s0_stripped == 4
    assert rp.form.coeffs == [28, 19, 19]
    assert rp.form.degree <= 6
    assert rp.rational_roots() == []


def test_ramified_lines_match_branch_roots():
    # fixed boundary points <-> rational roots of the stripped branch form
    surfaces = [random_surface(29, seed=5, mode="degenerate"),
                random_surface(29, seed=8, mode="degenerate")]
    for s in surfaces:
        for side in ("x", "y"):
            for info in degenerate_fibers(s, side):
                chart = chart_for(s, side, info.base)
                rp = ramification_prime(chart)
                fixed_lines = set()
                n_fixed = 0
                for bp in exceptional_points(chart):
                    if sigma_extended(chart, bp).moving == bp.moving:
                        fixed_lines.add(bp.s.raw)
                        n_fixed += 1
                assert n_fixed <= 6
                for bp in exceptional_points(chart):
                    is_fixed = sigma_extended(chart, bp).moving == bp.moving
                    assert is_fixed == (rp.form(*bp.s.raw) == 0)


def test_all_charts_of_the_example(w1_29):
    # every degenerate fiber of the reduced example yields a working chart
    for side in ("x", "y"):
        for info in degenerate_fibers(w1_29, side):
            chart = chart_for(w1_29, side, info.base)
            assert chart.e >= 1
            eps = exceptional_points(chart)
            assert eps
            for bp in eps[:5]:
                a, b = ((chart.center, bp.moving) if side == "x"
                        else (bp.moving, chart.center))
                assert w1_29.contains(a.coords, b.coords)


def test_vertical_parameter_is_stripped(chart29):
    # at s = (0,1) the raw quadratics vanish identically; the stripped
    # triple is the projective limit and stays usable.
    triple = chart29.pair_triple((0, 1), (0, 1))
    assert triple is not None
    assert any(v % 29 for v in triple)


def test_charts_need_a_finite_field(w1_qq):
    with pytest.raises(ValueError, match="finite field"):
        build_chart(w1_qq, "x", point2(QQ, -1, -1, 1))


def _charts(s):
    for side in ("x", "y"):
        for info in degenerate_fibers(s, side):
            yield info, chart_for(s, side, info.base)


def _resolve_outcome(chart, mv):
    try:
        return resolve_s(chart, mv).raw
    except (NoRationalS, AmbiguousS) as exc:
        return type(exc).__name__


@pytest.fixture(scope="module")
def table_surfaces(w1_29):
    """(surfaces, reproducers): between them, charts of all three fiber kinds."""
    surfaces = [w1_29] + [random_surface(29, seed, mode="degenerate") for seed in (5, 8)]
    surfaces += [_sparse_surface(p, seed) for p in (5, 7, 11, 13) for seed in (1, 4)]
    surfaces.append(_sparse_surface(5, 1000))
    reproducers = [random_surface(p, seed, mode="degenerate") for p, seed in NON_BIJECTIVE]
    return surfaces, reproducers


def _raws(chart, rows):
    return [tuple(r) for r in chart.surface.engine().table.pts[rows].tolist()]


def _points_outcome(chart, s):
    try:
        return [pt.raw for pt in chart.points_at(s)]
    except AmbiguousS as exc:
        return type(exc).__name__


def test_membership_table_agrees_with_the_scalar_predicate(table_surfaces):
    # Every (line parameter, fiber point) entry of the table against the
    # scalar `matches`, through the stored (line, moving) pairs, `points_at`
    # and `resolve_s`; the fiber itself against the scalar fiber solver.
    surfaces, reproducers = table_surfaces
    kinds = set()
    for s in surfaces + reproducers:
        uncovered = 0
        for info, chart in _charts(s):
            kinds.add(info.kind)
            fiber = sorted(pt.raw for pt in fiber_points(s, chart.side, info.base.coords))
            assert _raws(chart, chart.rows) == fiber
            cands = line_parameters(chart.p)
            on = {mv: [sv for sv in cands if chart.matches(mv, sv)] for mv in fiber}
            entries = [(j, mv) for j, sv in enumerate(cands) for mv in fiber if sv in on[mv]]
            assert list(zip(chart.line.tolist(), _raws(chart, chart.moving))) == entries
            for sv in cands:
                on_line = [mv for mv in fiber if sv in on[mv]]
                expected = on_line if len(on_line) <= 2 else "AmbiguousS"
                assert _points_outcome(chart, sv) == expected
            for mv, hits in on.items():
                expected = hits[0] if len(hits) == 1 else ("AmbiguousS" if hits else "NoRationalS")
                assert _resolve_outcome(chart, mv) == expected
                uncovered += not hits
        if s in reproducers:
            assert uncovered
    assert kinds == {"line", "conic", "plane"}


def test_a_line_with_three_points_is_ambiguous(w1_29, F29):
    # No fixture chart has a line with more than two points, so one is made:
    # a third pair is added to a two-point line of a freshly built chart.
    chart = build_chart(w1_29, "x", point2(F29, -1, -1, 1))
    pairs = list(zip(chart.line.tolist(), chart.moving.tolist()))
    full = sorted({j for j, _ in pairs})
    j, k, m = full[:3]
    extra = next(row for line, row in pairs if line == k)
    pairs = sorted(pairs + [(j, extra)])
    chart.line, chart.moving = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    s = line_parameters(chart.p)[j]
    message = re.escape(f"3 boundary points on line {s} over {chart.center}")
    with pytest.raises(AmbiguousS, match=message):
        chart.points_at(s)
    with pytest.raises(AmbiguousS, match=message):
        exceptional_points(chart)
    # A point on another line still resolves, and so do that line's points.
    on_m = chart.points_at(line_parameters(chart.p)[m])
    assert len(on_m) == 2
    assert all(resolve_s(chart, pt).raw == line_parameters(chart.p)[m] for pt in on_m)
    assert _resolve_outcome(chart, _raws(chart, [extra])[0]) == "AmbiguousS"


# -- the SparsePoly chart construction: the reference of the (eps, s) grids --------


def _pencil(s, side, center):
    """x(s, eps) = s0*center + eps*delta(s) as polys in PENCIL_VARS, keyed by
    the side's variable names."""
    c = [int(v) for v in center.raw]
    d = next(i for i, v in enumerate(c) if v)
    s0, s1, eps = SparsePoly.gens(s.domain, PENCIL_VARS)
    delta = ((0, s0, s1), (s0, 0, s1), (s1, s0, 0))[d]
    return {name: s0 * c[i] + eps * delta[i] for i, name in enumerate(_side_vars(side))}


class _ReferenceChart(BlowupChart):
    """A chart whose divided system is built by symbolic substitution.

    The coefficient polys are substituted along the pencil, G/H are formed
    on SparsePolys and eps powers are divided out exactly; the membership
    table is then built from the resulting exceptional forms as usual.
    """

    def _build(self):
        s, p = self.surface, self.p
        pencil = _pencil(s, self.side, self.center)
        cp = coefficient_polys(s, self.side)
        lc = [f.substitute(pencil) for f in cp.lc]
        g, h = gh_formula(lc, pair_getter([cp.q(k, l).substitute(pencil) for (k, l) in PAIRS]))
        orders = [f.vanishing_order("eps", 0) for f in (*g, *h.values()) if f]
        if not orders:
            raise NotDegenerate(f"G/H system vanishes identically at {self.center}")
        self.e = min(orders)
        if self.e == 0:
            raise NotDegenerate(f"{self.center} is not a degenerate {self.side}-side base point")
        self.gp = {k: f.divide_linear_power("eps", 0, self.e) for k, f in enumerate(g)}
        self.hp = {ij: f.divide_linear_power("eps", 0, self.e) for ij, f in h.items()}
        e_l = min(f.vanishing_order("eps", 0) for f in lc if f)
        self.lp = tuple(f.divide_linear_power("eps", 0, e_l) for f in lc)
        self.g_forms = {k: _exceptional_form(v, p, 4) for k, v in self.gp.items()}
        self.h_forms = {ij: _exceptional_form(v, p, 4) for ij, v in self.hp.items()}
        self.l_forms = [_exceptional_form(f, p, 1) for f in self.lp]
        self._build_table()

    def divided_system(self):
        return self.lp, self.gp, self.hp


def _reference_chart(chart):
    """The reference chart of `chart`'s center, on a fresh copy of its surface
    (so that neither shares the other's cached charts or branch forms)."""
    copy = parse_surface(serialize_surface(chart.surface))
    return _ReferenceChart(copy, chart.side, point2(copy.domain, *chart.center.raw))


def _ramification_outcome(chart):
    try:
        rp = ramification_prime(chart)
    except InexactQuotient as exc:
        return type(exc).__name__
    return rp.form.coeffs, rp.s0_stripped, rp.pair


def test_grid_charts_match_the_sparse_poly_construction(table_surfaces):
    # Every chart of the fixture and of the p = 3 and 5 surfaces (where a
    # product of grids cannot be read from values at 5 nodes): e, the
    # exceptional forms, L', the membership table, resolve_s at every fiber
    # point and the branch form.
    surfaces, reproducers = table_surfaces
    small = [parse_surface(text) for text in SMALL_P_SURFACES]
    charts = ramified = 0
    for s in surfaces + reproducers + small:
        for info, chart in _charts(s):
            ref = _reference_chart(chart)
            assert chart.e == ref.e
            for k in range(3):
                assert chart.g_forms[k].coeffs == ref.g_forms[k].coeffs
            assert list(chart.h_forms) == list(ref.h_forms)
            for ij, f in chart.h_forms.items():
                assert f.coeffs == ref.h_forms[ij].coeffs
            assert [f.coeffs for f in chart.l_forms] == [f.coeffs for f in ref.l_forms]
            assert chart.divided_system() == ref.divided_system()
            for name in ("rows", "line", "moving"):
                got, want = getattr(chart, name), getattr(ref, name)
                assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
            for sv in line_parameters(chart.p):
                assert _points_outcome(chart, sv) == _points_outcome(ref, sv)
            for pt in fiber_points(s, chart.side, info.base.coords):
                assert _resolve_outcome(chart, pt) == _resolve_outcome(ref, pt)
            outcome = _ramification_outcome(chart)
            assert outcome == _ramification_outcome(ref)
            charts += 1
            ramified += not isinstance(outcome, str)
    assert charts == 88 + 42 and ramified


# -- stripping by repeated division: the reference of the Taylor tables -----------


def _divide_root(p, coeffs, s):
    """Coefficients of the form divided by the linear form vanishing at s,
    or None if s is not a root."""
    s0, s1 = s
    if s0 % p:
        # Synthetic division by (u - tau) in the chart u = s1/s0.
        tau = s1 * pow(s0, p - 2, p) % p
        out = [0] * (len(coeffs) - 1)
        carry = 0
        for k in range(len(coeffs) - 1, 0, -1):
            carry = (coeffs[k] + carry * tau) % p
            out[k - 1] = carry
        return out if (coeffs[0] + carry * tau) % p == 0 else None
    # The root (0 : 1): divide by s0.
    return coeffs[:-1] if coeffs[-1] % p == 0 else None


def _divided_out(f, s):
    """(m, coefficients of f / ell^m) with m maximal, for a nonzero form f."""
    coeffs, m = f.coeffs, 0
    while (q := _divide_root(f.p, coeffs, s)) is not None:
        coeffs, m = q, m + 1
    return m, coeffs


def _stripped_value(f, s):
    """(order m of f at s, value at s of f / ell^m); (degree + 1, 0) for zero."""
    if f.is_zero():
        return f.degree + 1, 0
    m, q = _divided_out(f, s)
    return m, BinaryForm(f.p, q)(*s)


def _reference_stripped(forms, s):
    """Values at s of a group of forms divided by their common order there.

    Forms of higher order read 0; None when every form is the zero form.
    """
    ov = [_stripped_value(f, s) for f in forms]
    m = min(o for o, _ in ov)
    vals = tuple(v if o == m else 0 for o, v in ov)
    return vals if any(vals) else None


def _check_against_division(forms):
    p = forms[0].p
    cands = line_parameters(p)
    stripped = _stripped_rows(forms)
    for s, col in zip(cands, stripped.T.tolist()):
        assert tuple(col) == (_reference_stripped(forms, s) or (0,) * len(forms))
    field = PrimeField(p)
    for f in forms:
        orders = [f.degree + 1 if f.is_zero() else _divided_out(f, s)[0] for s in cands]
        assert [f.order_at(*s) for s in cands] == orders
        assert f.rational_roots() == ([] if f.is_zero() else [
            (point1(field, *s), m) for s, m in zip(cands, orders) if m])
        k, g = f.strip_power_of_s0()
        assert (k, g.coeffs) == ((0, f.coeffs) if f.is_zero() else _divided_out(f, (0, 1)))


def _times(p, *factors):
    """Product of binary forms given as coefficient lists."""
    out = [1]
    for g in factors:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] = (prod[i + j] + a * b) % p
        out = prod
    return out


def test_taylor_tables_strip_like_repeated_division(table_surfaces):
    # Every chart form group (the three pair triples and L') of the fixture.
    surfaces, reproducers = table_surfaces
    groups = 0
    for s in surfaces + reproducers:
        for _info, chart in _charts(s):
            for (k, l) in ((0, 1), (0, 2), (1, 2)):
                _check_against_division(
                    (chart.g_forms[k], chart.h_forms[(k, l)], chart.g_forms[l]))
            _check_against_division(chart.l_forms)
            groups += 4
    assert groups == 352


def test_taylor_tables_on_constructed_forms():
    # p = 11: s0^2 + s1^2 has no rational root, s0 + s1 only (1 : 10).
    p = 11
    ell = {(1, 3): [3, -1], (0, 1): [1, 0]}  # linear forms vanishing there
    zero = BinaryForm(p, [0] * 5)
    forms = []
    for root, lin in ell.items():
        for m in range(1, 5):
            cofactor = [[1, 0, 1]] * ((6 - m) // 2) + [[1, 1]] * ((6 - m) % 2)
            f = BinaryForm(p, _times(p, *[lin] * m, *cofactor))
            assert f.degree == 6 and f.order_at(*root) == m
            forms.append(f)
        # Degree 4, and a group of two orders at the same root.
        f4 = BinaryForm(p, _times(p, lin, lin, [1, 0, 1]))
        g4 = BinaryForm(p, _times(p, lin, lin, lin, [1, 1]))
        assert (f4.order_at(*root), g4.order_at(*root)) == (2, 3)
        _check_against_division((f4, g4))
        _check_against_division((g4, zero, f4))
    for f in forms:
        _check_against_division((f,))
    _check_against_division((zero,))
    _check_against_division((zero, zero, zero))
    _check_against_division((BinaryForm(p, [3, 5]), BinaryForm(p, [0, 0])))
    _check_against_division(tuple(forms[:3]))
    assert zero.order_at(1, 3) == 5 and zero.rational_roots() == []


def _q_rows(chart):
    """Q' per line parameter: Q along the chart's pencil, divided by its power
    of eps and stripped at each s like L'; keyed by the moving monomial."""
    q = chart.surface.q_poly()
    moving = YVARS if chart.side == "x" else XVARS
    images = dict.fromkeys(q.vars, SparsePoly.zero(q.domain, PENCIL_VARS))
    images.update(_pencil(chart.surface, chart.side, chart.center))
    forms = []
    for (k, l) in PAIRS:
        if k == l:
            coef = q.coefficient_of(moving[k], 2)
        else:
            coef = q.coefficient_of(moving[k], 1).coefficient_of(moving[l], 1)
        forms.append(coef.substitute(images))
    e_q = min(f.vanishing_order("eps", 0) for f in forms if f)
    forms = [_exceptional_form(f.divide_linear_power("eps", 0, e_q), chart.p, 2)
             for f in forms]
    return e_q, _stripped_rows(forms).T.tolist()


def test_q_prime_vanishes_wherever_the_table_accepts(table_surfaces):
    # The proof in `BlowupChart._build_table`: L' and the pair quadratics
    # imply Q', so the table needs no Q' row.  Checked at every stored
    # (line, moving) entry, and at the points `points_at` returns.
    surfaces, reproducers = table_surfaces
    accepted = {"e_q = 0": 0, "e_q > 0": 0}
    for s in surfaces + reproducers:
        for _info, chart in _charts(s):
            p = chart.p
            e_q, rows = _q_rows(chart)
            entries = list(zip(chart.line.tolist(), _raws(chart, chart.moving)))
            assert entries == [(j, pt.raw) for j, sv in enumerate(line_parameters(p))
                               for pt in chart.points_at(sv)]
            for j, mv in entries:
                row = rows[j]
                assert any(row)  # Q' does not vanish identically on the line
                assert sum(c * mv[k] * mv[l] for c, (k, l) in zip(row, PAIRS)) % p == 0
                accepted["e_q > 0" if e_q else "e_q = 0"] += 1
    assert all(accepted.values()), accepted


def test_division_errors_other_than_inexact_division_propagate(monkeypatch):
    # Only InexactDivision becomes InexactQuotient; anything else is a bug
    # and must surface as itself.
    def broken(self, divisor):
        raise TypeError("broken division")

    monkeypatch.setattr(SparsePoly, "divide_exact", broken)
    s = w1_surface(29)  # a fresh surface: both results are cached on it
    with pytest.raises(TypeError, match="broken division"):
        ramification_sextic(s, "x")
    with pytest.raises(TypeError, match="broken division"):
        ramification_prime(build_chart(s, "x", (-1, -1, 1)))


# Per surface: the number of charts and the sha256 of every chart's
# boundary points (s, moving) and `resolve_s` outcome at every fiber point;
# generated by the root-search implementation that the table replaced.
CHART_PINS = [
    ("w1", 29, None, 8, "c39f23b868530bf72dc1828e5cf9dd6e289d146b697dc923a90b728520f28550"),
    ("degenerate", 29, 0, 1, "7f78c732057eb8893a4c37ea5bdb0bfa3de1fbcbef2f41cdf99f379aaefa5662"),
    ("degenerate", 29, 1, 2, "27ffb7c51de735ee346b4ceb0c83ad0a67d4af1ab2bcc964b05a8fec8653af60"),
    ("degenerate", 29, 2, 1, "f9191405369c74f6ad5919ec0ff0552bd49a3cfe16f0eba022d6bb029b3ce654"),
    ("degenerate", 29, 5, 2, "cf9d47710f6fd3a83cfe25c7f34b1a1624582a3a959ea63e85bedec9cfa13107"),
    ("degenerate", 29, 8, 1, "8c77737b941acc1f89ca28496218fe379e4026dde213c6bad21ad813c67f83a1"),
    ("degenerate", 5, 75, 1, "39068a24e031f9060141a8a25e4c8a16359e6a807c59d9472c257a76de2fe12a"),
    ("degenerate", 5, 93, 3, "3655627d0f89e03375d3932f7d091445b7920c944e09096f93e8bfd39f0549d8"),
    ("degenerate", 7, 35, 1, "fd25f4cfdbe922d42964a6ab3756bbe9841c1c4d43a67a439ada82934c843c7c"),
    ("degenerate", 7, 40, 2, "8195a6cb7c0439465848cb23b7885858b8af33ff124c47da7ad15997a879348b"),
    ("degenerate", 7, 133, 1, "2fc3cb186633ab39ac24533e390421c0cc3ff9b4df41bd28972f78e0d8390056"),
    ("degenerate", 11, 133, 1, "eb25daf9de8a0a197f0fb031c768ea0f5a85d432872629cdb73d13e0b4a119e1"),
    ("sparse", 5, 1000, 13, "1c4c714df75067cbbde56b2e8e03818af3e93507512d9f363733778c080d69ec"),
    ("sparse", 5, 1, 4, "4a3be240fdda6c98142fec7e12bfcd22e53b6a2d3f3df6426216bf7d6ffad633"),
    ("sparse", 5, 4, 8, "9990d295751cb998331740d16f71f4b455716aa4c81cde47086df1a78e6a2f6c"),
    ("sparse", 7, 1, 3, "813883a16031f49ec1e5c6735e82b135010916bc6ccaf3a067b16ad8a517ad5d"),
    ("sparse", 7, 4, 11, "16af3cbc8a734e80490b2b4ee8f7951851f258a18882912a52a081053bfc9810"),
    ("sparse", 11, 4, 4, "962c1e78cf546d254ec69a108cc52e499aad86df67e2385692885afcabc24cef"),
    ("sparse", 13, 1, 3, "f9e19f15406ccc4c866534f3251c62225b67a971893c0d84ec211140b3b90031"),
    ("sparse", 13, 4, 16, "e66601d1be1c68b32edf5972dc87953a1b1a9ed54e0953cd2089fd2f94c34d01"),
]


@pytest.mark.parametrize("kind,p,seed,charts,digest", CHART_PINS)
def test_chart_outputs_pinned(kind, p, seed, charts, digest):
    if kind == "w1":
        s = w1_surface(p)
    elif kind == "degenerate":
        s = random_surface(p, seed, mode="degenerate")
    else:
        s = _sparse_surface(p, seed)
    out = []
    for info, chart in _charts(s):
        eps = [(bp.s.raw, bp.moving.raw) for bp in exceptional_points(chart)]
        res = [(pt.raw, _resolve_outcome(chart, pt))
               for pt in fiber_points(s, chart.side, info.base.coords)]
        out.append((chart.side, info.base.raw, info.kind, eps, res))
    assert len(out) == charts
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest
