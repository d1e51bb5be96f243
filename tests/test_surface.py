import hashlib
import random
import re
from pathlib import Path

import numpy as np
import pytest

from wehlerk3.dynamics import lift_pair, phase_step
from wehlerk3.errors import (
    BadModulus,
    DegenerateFiber,
    ExhaustedAttempts,
    InexactQuotient,
    ParseError,
    ZeroForm,
)
from wehlerk3.field import PrimeField, QQ
from wehlerk3.fixtures import w1_surface
from wehlerk3.geometry import point2
from wehlerk3.involution import fiber_points, sigma
from wehlerk3.poly import SparsePoly
from wehlerk3.surface import (
    VARS6,
    SmoothnessReport,
    YVARS,
    WehlerSurface,
    branch_quotient,
    coefficient_polys,
    degenerate_fibers,
    enumerate_points,
    fiber_quadratic,
    gh_system,
    gh_values,
    is_smooth_rational,
    pair_rows,
    parse_surface,
    point_count,
    ramification_sextic,
    random_surface,
    serialize_surface,
    surface_pairs,
)

W1_TEXT = """\
p Q
L 0 0 1
L 1 1 1
L 2 2 1
Q 1 1 0 0 1
Q 2 2 0 1 2
Q 0 0 1 1 1
Q 0 1 2 2 -1
"""


def _random_surface_text(rng, p):
    lines = [f"p {p}"]
    for i in range(3):
        for j in range(3):
            c = rng.randrange(p)
            if c:
                lines.append(f"L {i} {j} {c}")
    for (i, j) in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        for (k, l) in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            c = rng.randrange(p)
            if c:
                lines.append(f"Q {i} {j} {k} {l} {c}")
    return "\n".join(lines) + "\n"


def test_parse_worked_example():
    s = parse_surface(W1_TEXT)
    assert s.domain is QQ
    assert [[int(v) for v in row] for row in s.a] == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # b is indexed by canonical monomial pairs in the fixed order
    # (0,0),(0,1),(0,2),(1,1),(1,2),(2,2).
    assert s.b[3][0] == 1      # x1^2 y0^2
    assert s.b[5][1] == 2      # x2^2 y0*y1
    assert s.b[0][3] == 1      # x0^2 y1^2
    assert s.b[1][5] == -1     # x0*x1 y2^2


def test_parse_symmetrizes_cross_terms():
    s = parse_surface("p 29\nL 0 0 1\nQ 1 0 2 1 5\n")
    assert int(s.b[1][4]) == 5  # stored at the (0,1),(1,2) canonical slot


def test_parse_accumulates_repeated_entries():
    s = parse_surface("p 29\nL 0 0 1\nL 0 0 2\nQ 0 0 0 0 1\n")
    assert int(s.a[0][0]) == 3


def test_serialize_roundtrip_random():
    rng = random.Random(2)
    for _ in range(6):
        text = _random_surface_text(rng, 31)
        try:
            s = parse_surface(text)
        except ZeroForm:
            continue
        assert parse_surface(serialize_surface(s)) == s


def test_parse_reads_the_readme_example_with_inline_comments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Surface file format", 1)[1].split("```\n", 2)[1]
    bare = re.sub(r"\s*#.*", "", block)
    assert "#" in block and "#" not in bare
    assert parse_surface(block) == parse_surface(bare)
    assert parse_surface("# a comment line\n" + block) == parse_surface(bare)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_surface("")
    with pytest.raises(ParseError):
        parse_surface("q 29\nL 0 0 1\n")
    with pytest.raises(BadModulus):
        parse_surface("p 30\nL 0 0 1\nQ 0 0 0 0 1\n")
    with pytest.raises(ParseError):
        parse_surface("p 29\nL 0 5 1\nQ 0 0 0 0 1\n")
    with pytest.raises(ZeroForm):
        parse_surface("p 29\nL 0 0 1\n")
    with pytest.raises(ZeroForm):
        parse_surface("p 29\nQ 0 0 0 0 1\n")


def test_coefficient_polys_worked_example(w1_qq):
    cp = coefficient_polys(w1_qq, "y")
    y0, y1, y2 = SparsePoly.gens(QQ, ("y0", "y1", "y2"))
    assert list(cp.lc) == [y0, y1, y2]
    assert cp.q(0, 0) == y1 * y1
    assert cp.q(0, 1) == -(y2 * y2)
    assert cp.q(1, 1) == y0 * y0
    assert cp.q(2, 2) == 2 * y0 * y1
    assert cp.q(0, 2).is_zero() and cp.q(1, 2).is_zero()


def test_coefficient_polys_diagonal_l():
    # With diagonal a, the x-side linear coefficients are a_jj * x_j.
    s = WehlerSurface.from_terms(
        PrimeField(7), [((0, 0), 2), ((1, 1), 3), ((2, 2), 4)],
        [((0, 0, 0, 0), 1)])
    cp = coefficient_polys(s, "x")
    x0, x1, x2 = SparsePoly.gens(PrimeField(7), ("x0", "x1", "x2"))
    assert list(cp.lc) == [2 * x0, 3 * x1, 4 * x2]


def _reconstruct(s, side):
    cp = coefficient_polys(s, side)
    dom = s.domain
    gens6 = {n: SparsePoly.variable(dom, VARS6, n) for n in VARS6}
    own = ("x0", "x1", "x2") if side == "x" else ("y0", "y1", "y2")
    other = ("y0", "y1", "y2") if side == "x" else ("x0", "x1", "x2")
    ident = {n: n for n in own}
    l_sum = SparsePoly.zero(dom, VARS6)
    for j in range(3):
        l_sum = l_sum + cp.lc[j].rename(dom, VARS6, ident) * gens6[other[j]]
    q_sum = SparsePoly.zero(dom, VARS6)
    for (k, l) in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        q_sum = q_sum + (cp.q(k, l).rename(dom, VARS6, ident)
                         * gens6[other[k]] * gens6[other[l]])
    return l_sum, q_sum


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reconstruction_identities(seed):
    s = random_surface(11, seed=seed, mode="any")
    for side in ("x", "y"):
        l_sum, q_sum = _reconstruct(s, side)
        assert l_sum == s.l_poly()
        assert q_sum == s.q_poly()


def test_gh_values_worked_example(w1_qq):
    g, h = gh_values(w1_qq, "y", (1, 0, 1))
    assert [int(v) for v in g] == [1, 0, 1]
    assert int(h[(0, 1)]) == -1


def test_gh_single_term_quadric():
    # Q = x0^2 y0^2 alone: G_2^y = (L_1^y)^2 Q_00^y = y1^2 * y0^2 for L = sum x_i y_i.
    s = WehlerSurface.from_terms(
        QQ, [((0, 0), 1), ((1, 1), 1), ((2, 2), 1)], [((0, 0, 0, 0), 1)])
    sys = gh_system(s, "y")
    y0, y1, y2 = SparsePoly.gens(QQ, ("y0", "y1", "y2"))
    assert sys.g[2] == y1 * y1 * y0 * y0
    assert sys.g[1] == y2 * y2 * y0 * y0


def test_gh_vanishes_where_all_linear_coefficients_vanish():
    # Every G/H term carries two linear factors, so they all vanish together.
    s = WehlerSurface.from_terms(
        PrimeField(7), [((0, 0), 1)], [((0, 0, 0, 0), 1), ((1, 1, 1, 1), 1)])
    # L = x0*y0; on the y side the linear coefficients at b = (0, 1, 0) are 0.
    g, h = gh_values(s, "y", (0, 1, 0))
    assert all(int(v) == 0 for v in g)
    assert all(int(v) == 0 for v in h.values())


@pytest.mark.parametrize("seed", [4, 5])
def test_fiber_quadratic_matches_restriction(seed):
    # The pair quadratic equals L_m(b)^2 * Q restricted to the fiber line:
    # sample points on L(., b) = 0 and compare values.
    p = 11
    s = random_surface(p, seed=seed, mode="any")
    F = s.domain
    rng = random.Random(seed)
    for _ in range(40):
        b = (rng.randrange(p), rng.randrange(p), 1)
        lc = s.line_values("y", b)
        g, h = gh_values(s, "y", b)
        if all(int(v) == 0 for v in g) and all(int(v) == 0 for v in h.values()):
            continue
        for (k, l, m) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            if int(lc[m]) == 0:
                continue
            # point on the line with free (x_k, x_l)
            xk, xl = F(rng.randrange(p)), F(rng.randrange(p))
            xm = -(lc[k] * xk + lc[l] * xl) / lc[m]
            x = [None, None, None]
            x[k], x[l], x[m] = xk, xl, xm
            qv = s.quad_values("y", b)
            qval = sum(
                (qv[i] * x[a] * x[c] for i, (a, c) in enumerate(
                    ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))),
                F.zero)
            quad = g[k] * xl * xl + h[(min(k, l), max(k, l))] * xk * xl + g[l] * xk * xk
            assert quad == lc[m] * lc[m] * qval


def test_fiber_quadratic_worked_example(w1_qq):
    A, B, C = fiber_quadratic(w1_qq, "y", (1, 0, 1), (0, 1))
    assert (int(A), int(B), int(C)) == (1, -1, 0)


def test_fiber_quadratic_degenerate_base(w1_29):
    with pytest.raises(DegenerateFiber):
        fiber_quadratic(w1_29, "x", (-1, -1, 1), (0, 1))


def test_ramification_sextic_worked_example(w1_qq):
    rs = ramification_sextic(w1_qq, "y")
    assert rs.g.total_degree() == 6
    assert rs.g.evaluate({"y0": 1, "y1": 0, "y2": 1}) == 1


def _display_formula(s, side):
    """The expanded 12-term branch form, assembled independently."""
    cp = coefficient_polys(s, side)
    L = cp.lc
    q = cp.q
    return (
        L[0] * L[0] * q(1, 2) * q(1, 2)
        + L[1] * L[1] * q(0, 2) * q(0, 2)
        + L[2] * L[2] * q(0, 1) * q(0, 1)
        - 2 * L[0] * L[1] * q(0, 2) * q(1, 2)
        - 2 * L[0] * L[2] * q(0, 1) * q(1, 2)
        - 2 * L[1] * L[2] * q(0, 1) * q(0, 2)
        + 4 * L[0] * L[1] * q(0, 1) * q(2, 2)
        + 4 * L[0] * L[2] * q(0, 2) * q(1, 1)
        + 4 * L[1] * L[2] * q(1, 2) * q(0, 0)
        - 4 * L[0] * L[0] * q(1, 1) * q(2, 2)
        - 4 * L[1] * L[1] * q(0, 0) * q(2, 2)
        - 4 * L[2] * L[2] * q(1, 1) * q(0, 0)
    )


@pytest.mark.parametrize("seed", [1, 6])
def test_ramification_sextic_matches_display_formula(seed):
    s = random_surface(11, seed=seed, mode="any")
    for side in ("x", "y"):
        assert ramification_sextic(s, side).g == _display_formula(s, side)


def test_ramification_sextic_display_formula_on_example(w1_qq):
    for side in ("x", "y"):
        assert ramification_sextic(w1_qq, side).g == _display_formula(w1_qq, side)


def test_sextic_zero_iff_repeated_fiber_point():
    # Exhaustive at p = 7: over non-degenerate bases, the branch form
    # vanishes exactly where the restricted quadratic has a double root.
    p = 7
    s = random_surface(p, seed=8, mode="any")
    rs = ramification_sextic(s, "y")
    F = s.domain
    pts = [(0, 0, 1)] + [(0, 1, z) for z in range(p)] + [
        (1, y, z) for y in range(p) for z in range(p)]
    for b in pts:
        g, h = gh_values(s, "y", b)
        if all(int(v) == 0 for v in g) and all(int(v) == 0 for v in h.values()):
            continue
        lc = s.line_values("y", b)
        usable = [(k, l, m) for (k, l, m) in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
                  if int(lc[m]) != 0]
        if not usable:
            continue
        k, l, m = usable[0]
        A = g[k]
        B = h[(min(k, l), max(k, l))]
        C = g[l]
        disc = B * B - 4 * A * C
        val = rs.g.evaluate({"y0": b[0], "y1": b[1], "y2": b[2]})
        assert (int(disc) == 0) == (int(val) == 0)


def _branch_inputs(case):
    """(lc, g, h) over F_29 in y0..y2 with every G zero, for `branch_quotient`."""
    F = PrimeField(29)
    y0, y1, _ = SparsePoly.gens(F, YVARS)
    zero = SparsePoly.zero(F, YVARS)
    lc, h = {
        # num_2 / L_2^2 = y1^2, but num_1 = 0 is not y1^2 * L_1^2.
        "pairs disagree": ((y0, y0, y0), (y0 * y1, zero, zero)),
        "no exact division": ((zero, zero, y0), (y1, zero, zero)),
        "every L_k zero": ((zero, zero, zero), (y1, y1, y1)),
        "agree": ((y0, y0, y0), (y0 * y1, y0 * y1, y0 * y1)),
    }[case]
    return lc, (zero, zero, zero), dict(zip(((0, 1), (0, 2), (1, 2)), h))


@pytest.mark.parametrize("case, match", [
    ("pairs disagree", "disagrees between index pairs"),
    ("no exact division", "does not divide"),
    ("every L_k zero", "every linear coefficient form"),
])
def test_branch_quotient_failures_raise_inexact_quotient(case, match):
    with pytest.raises(InexactQuotient, match=match):
        branch_quotient(*_branch_inputs(case))


def test_branch_quotient_returns_the_first_usable_pair():
    q, pair = branch_quotient(*_branch_inputs("agree"))
    y1 = SparsePoly.gens(PrimeField(29), YVARS)[1]
    assert (q, pair) == (y1 * y1, (0, 1))


@pytest.mark.parametrize("call", [
    lambda s: degenerate_fibers(s, "z"),
    lambda s: s.line_values("z", (1, 0, 1)),
    lambda s: s.quad_values("z", (1, 0, 1)),
    lambda s: fiber_points(s, "z", (1, 0, 1)),
    lambda s: s.engine().fiber_pairs("z"),
    lambda s: s.engine().degenerate_bases("z"),
    lambda s: phase_step(s, lift_pair(s, (-1, -1, 1), (1, 0, 1)), "z"),
    lambda s: sigma(s, "z", ((1, 0, 1), (-1, 2, 1))),
], ids=["degenerate_fibers", "line_values", "quad_values", "fiber_points",
        "fiber_pairs", "degenerate_bases", "phase_step", "sigma"])
def test_unknown_side_raises_value_error(w1_29, call):
    with pytest.raises(ValueError, match="side must be 'x' or 'y', got 'z'"):
        call(w1_29)


def test_degenerate_fibers_worked_example(w1_qq):
    infos = degenerate_fibers(w1_qq, "x")
    assert [d.base for d in infos] == [point2(QQ, 1, 1, -1), point2(QQ, 1, 1, 1)]
    assert all(d.kind == "line" for d in infos)
    assert degenerate_fibers(w1_qq, "y") == []


def test_degenerate_fibers_reductions(w1_29):
    found = {d.base for d in degenerate_fibers(w1_29, "x")}
    F = w1_29.domain
    assert point2(F, -1, -1, 1) in found
    assert point2(F, 1, 1, 1) in found


def test_degenerate_fibers_random_nondegenerate():
    s = random_surface(11, seed=1)
    assert degenerate_fibers(s, "x") == []
    assert degenerate_fibers(s, "y") == []


def test_enumerate_points_small_prime_brute_force():
    s = w1_surface(3)
    F = s.domain
    pts = [(0, 0, 1)] + [(0, 1, z) for z in range(3)] + [
        (1, y, z) for y in range(3) for z in range(3)]
    naive = sorted(
        (*a, *b) for a in pts for b in pts
        if s.contains(tuple(F(v) for v in a), tuple(F(v) for v in b)))
    got = sorted(tuple(int(v) for v in row) for row in surface_pairs(s))
    assert got == naive


@pytest.mark.parametrize("seed", [3, 4])
def test_enumerate_points_random_small_prime(seed):
    p = 7
    s = random_surface(p, seed=seed, mode="any")
    F = s.domain
    pts = [(0, 0, 1)] + [(0, 1, z) for z in range(p)] + [
        (1, y, z) for y in range(p) for z in range(p)]
    naive = sorted(
        (*a, *b) for a in pts for b in pts
        if s.contains(tuple(F(v) for v in a), tuple(F(v) for v in b)))
    got = [tuple(int(v) for v in row) for row in surface_pairs(s)]
    assert got == sorted(got)  # deterministic lexicographic order
    assert sorted(got) == naive


def test_enumerate_contains_known_point_and_bound(w1_29):
    pts = enumerate_points(w1_29)
    F = w1_29.domain
    assert (point2(F, -1, -1, 1), point2(F, 1, 0, 1)) in pts
    assert point_count(w1_29) >= 29 * 29 - 22 * 29 + 1


def test_smoothness_report(w1_29):
    rep = is_smooth_rational(w1_29)
    assert rep.no_rational_singular_point
    assert rep.points_checked == point_count(w1_29)


def test_smoothness_rejects_doubled_form():
    # Q = L^2 makes every surface point singular (the Jacobian of Q is
    # proportional to that of L on the surface).
    F = PrimeField(11)
    l_terms = [((0, 0), 1), ((1, 1), 1), ((2, 2), 1)]
    q_terms = [((i, j, i, j), 1) for i in range(3) for j in range(3)]
    s = WehlerSurface.from_terms(F, l_terms, q_terms)
    assert s.q_poly() == s.l_poly() * s.l_poly()
    rep = is_smooth_rational(s)
    assert not rep.no_rational_singular_point
    assert rep.singular_points


def _full_scan_report(s):
    """The smoothness report of a Jacobian scan at every rational point."""
    pairs = surface_pairs(s)
    bad = s.engine().smooth_scan(pairs)
    dom = s.domain
    sing = tuple((point2(dom, *r[:3]), point2(dom, *r[3:])) for r in pairs[bad][:16].tolist())
    return SmoothnessReport(not bad.any(), len(pairs), sing)


def _singular_x_fiber_sizes(s):
    """The x-fiber size of every singular rational point, from the full scan."""
    x_rows, _ = pair_rows(s)
    bad = s.engine().smooth_scan(surface_pairs(s))
    return set(np.bincount(x_rows)[x_rows][bad].tolist())


def test_candidate_row_scan_matches_the_full_scan():
    # Raw draws, with no mode or smoothness filter: sparse ones are often
    # singular, on one-point and on degenerate x-fibers alike.
    draws = singular = 0
    sizes = set()
    for p in (5, 7, 11, 13, 17):
        for seed in range(40):
            rng = random.Random(seed)
            for density in (0.3, 0.6, 1.0):
                while True:
                    a = [[rng.randrange(1, p) if rng.random() < density else 0
                          for _ in range(3)] for _ in range(3)]
                    b = [[rng.randrange(1, p) if rng.random() < density / 2 else 0
                          for _ in range(6)] for _ in range(6)]
                    try:
                        s = WehlerSurface(PrimeField(p), a, b)
                        break
                    except ZeroForm:
                        pass
                want = _full_scan_report(s)
                assert is_smooth_rational(s) == want, (p, seed, density)
                draws += 1
                singular += not want
                sizes |= _singular_x_fiber_sizes(s)
    assert draws == 600 and 200 < singular < 500
    assert 1 in sizes and max(sizes) > 2 and 2 not in sizes


# A rational singular point at ((1:0:0), (1:0:0)): Q lies in the square of
# its maximal ideal.  In the first surface its x-fiber is the double root
# y2^2 = 0 on the line y1 = 0 and no x-fiber is degenerate; in the second Q
# vanishes on that whole line and every singular point lies on a
# degenerate x-fiber.
SINGULAR_ON_ONE_POINT_FIBER = """\
p 11
L 0 1 1
L 1 0 1
L 2 2 1
Q 0 0 2 2 1
Q 1 1 0 0 1
Q 2 2 0 1 1
Q 1 2 0 0 3
Q 0 1 1 2 2
Q 1 1 2 2 1
Q 1 1 1 1 2
"""
SINGULAR_ON_DEGENERATE_FIBER = """\
p 11
L 0 1 1
L 1 0 1
L 2 2 1
Q 0 0 1 2 1
Q 1 1 0 0 1
Q 2 2 0 2 1
Q 1 2 1 1 3
Q 0 1 2 2 2
"""


@pytest.mark.parametrize("text,sizes,degenerate", [
    (SINGULAR_ON_ONE_POINT_FIBER, {1}, 0),
    (SINGULAR_ON_DEGENERATE_FIBER, {12}, 4),
], ids=["one_point", "degenerate"])
def test_smoothness_finds_singular_points_on_each_kind_of_candidate_fiber(
        text, sizes, degenerate):
    s = parse_surface(text)
    F = s.domain
    assert len(degenerate_fibers(s, "x")) == degenerate
    assert _singular_x_fiber_sizes(s) == sizes
    rep = is_smooth_rational(s)
    assert rep == _full_scan_report(s)
    assert not rep and rep.points_checked == point_count(s)
    assert (point2(F, 1, 0, 0), point2(F, 1, 0, 0)) in rep.singular_points


def test_random_surface_determinism():
    s1 = random_surface(29, seed=1)
    s2 = random_surface(29, seed=1)
    assert s1 == s2
    assert serialize_surface(s1) == serialize_surface(s2)


def test_random_surface_filters():
    s = random_surface(29, seed=1)
    assert is_smooth_rational(s)
    assert not degenerate_fibers(s, "x") and not degenerate_fibers(s, "y")
    sd = random_surface(29, seed=5, mode="degenerate")
    infos = degenerate_fibers(sd, "x") + degenerate_fibers(sd, "y")
    assert infos
    # positive-dimensional witness: the degenerate fiber carries many points
    from wehlerk3.involution import fiber_points
    info = infos[0]
    side = "x" if info in degenerate_fibers(sd, "x") else "y"
    assert len(fiber_points(sd, side, info.base.coords)) >= 4


def test_random_surface_bad_prime():
    with pytest.raises(BadModulus):
        random_surface(3, seed=1)


def test_random_surface_exhaustion():
    with pytest.raises(ExhaustedAttempts):
        random_surface(5, seed=1, mode="degenerate", min_degenerate=50, max_draws=20)


# (p, seed, mode, smallest max_draws that succeeds, sha256 of serialize_surface).
# The seeds are chosen so that draws are rejected for every reason, including
# singular surfaces that pass the degeneracy-mode test; a change to the accept
# predicate or to the order of the rng draws changes the surface or the count.
RANDOM_SURFACE_PINS = [
    (7, 2, "any", 4, "be9326690bb207d4283d5b11c1a8b17b8cf6ee77316f073b3f38e77e48864daa"),
    (11, 1, "any", 3, "15b99eec69e79bcfa5ef31c684c97e180cbf27b4eb7545b35f43f3b490ad7dfa"),
    (13, 5, "any", 2, "2721fb8b34e96a06732af1a7b858409b46df751a60b3f83a4a628acbfc8aa021"),
    (17, 16, "any", 3, "3418ed7c62fe8d670ea84bafa3b24bcf7a52dd8529c4200bbe6a29489cfac5bd"),
    (19, 1, "any", 2, "60f5a43e003108c4df7aa7871cfce3eddf55a943d2feb1eec1698d3ccbfa5715"),
    (23, 14, "any", 3, "667cd2a6c535a1c3ae45b5ecbadac87751fd051a240dcd1679f7138125c7f562"),
    (29, 6, "any", 1, "63983b47eeaa91d2e15f607e4a20e395c3036df8eac91e5d4032f8ad51c2b6f8"),
    (31, 4, "any", 2, "dfb2f3ac63d3b305933ff8a879de610502e886992a918b851243b4af70d6e5e3"),
    (7, 2, "nondegenerate", 4, "be9326690bb207d4283d5b11c1a8b17b8cf6ee77316f073b3f38e77e48864daa"),
    (11, 1, "nondegenerate", 3, "15b99eec69e79bcfa5ef31c684c97e180cbf27b4eb7545b35f43f3b490ad7dfa"),
    (13, 5, "nondegenerate", 3, "33b97dcc0b6f4f0683e4fab76a934bc61ce58671020114f086f31d327e72c12e"),
    (17, 16, "nondegenerate", 4, "b739b26256c599a1e1bf5f1300ad76dc7a730354da06ac7b161c41730689f50b"),
    (19, 7, "nondegenerate", 2, "d885691aff258ec6a5a6c90bd35a61782dc77dbc0f833993a4a680c803d7822d"),
    (23, 14, "nondegenerate", 3, "667cd2a6c535a1c3ae45b5ecbadac87751fd051a240dcd1679f7138125c7f562"),
    (29, 31, "nondegenerate", 3, "ad887508ada5cc9337fa3634be25b02048095e1041d585a906b8424e30db5fdf"),
    (31, 14, "nondegenerate", 2, "f1c53a438a3c8bf94539871001c335eeeb58560359dc7d67b4eb80bfd47521cd"),
    (7, 2, "degenerate", 6, "324fa5264c2dddd5220e427d0183e0abacd834cae4531a37a59cbc36de80b6ef"),
    (11, 1, "degenerate", 4, "c34f2c1028de48c792d5e02f88f27c23b0c0cc813b6991d9db610bb1d578efa1"),
    (13, 21, "degenerate", 6, "105e7369e46380d34a0783309da2ad0431de92d57a13d0bf93d5324feb4de674"),
    (17, 16, "degenerate", 3, "3418ed7c62fe8d670ea84bafa3b24bcf7a52dd8529c4200bbe6a29489cfac5bd"),
    (19, 0, "degenerate", 11, "48834a9aa2c010714642a7a895ed6ce11f6474fd53dca8cd5bdd3241e30ae069"),
    (23, 22, "degenerate", 5, "ad468c1c149752a5d4b4f9892557e81ebe252d686ebe059986ef164b527fc2dd"),
    (29, 36, "degenerate", 31, "15f78ddfa3da71ae338e2fcaf5df4cce19291e5743e630ff19a93445e42bbece"),
    (31, 18, "degenerate", 15, "9f142b1b1ff469f33321798602d6a0299ebfb3656657f8a657a2fc0953d2384e"),
    (5, 75, "degenerate", 2, "cf94d6fe632165803a27670a0596df53e96e2aca3ae5491e943afbb93a77e917"),
    (5, 93, "degenerate", 4, "d8cfcd67f04d9521996ab2d79134a21177d347ab477ed7caf54b045255e0c8ee"),
    (7, 35, "degenerate", 4, "e8e4fcef8bf19718400e44f60e9a4c595d3eb5c07634a1695443effe7ea7b612"),
    (7, 40, "degenerate", 2, "8d05e459d8e9bb4c66a7b77e8e8c1848545afbc34fd9903b4adcc22b32a1f935"),
    (7, 133, "degenerate", 9, "8d34bc14561188443afba26e77a840e2bc97acd03c60646ac5f7aa83cc4392c0"),
    (11, 133, "degenerate", 3, "5a12ae9ceec3e1104d92e739489536b4244871b3400413c4b398a2a12771e0e0"),
]


@pytest.mark.parametrize("p,seed,mode,draws,digest", RANDOM_SURFACE_PINS)
def test_random_surface_pinned_outputs(p, seed, mode, draws, digest):
    s = random_surface(p, seed, mode=mode, max_draws=draws)
    assert hashlib.sha256(serialize_surface(s).encode()).hexdigest() == digest
    if draws > 1:
        with pytest.raises(ExhaustedAttempts):
            random_surface(p, seed, mode=mode, max_draws=draws - 1)


@pytest.mark.parametrize("mode", ["nondegenerate", "degenerate", "any"])
def test_random_surface_caches_what_a_fresh_surface_builds(mode):
    # The accepted surface carries the engine (and, outside mode "any", the
    # degenerate lists) of its raw draw; a fresh copy builds the same.
    for p, seed in ((13, 21), (29, 36), (11, 133)):
        s = random_surface(p, seed, mode=mode)
        fresh = parse_surface(serialize_surface(s))
        assert (("degenerate", "x") in s._cache) == (mode != "any")
        for side in ("x", "y"):
            for got, want in zip(s.engine().rows(side), fresh.engine().rows(side)):
                assert np.array_equal(got, want)
            assert degenerate_fibers(s, side) == degenerate_fibers(fresh, side)


def test_random_surface_builds_surfaces_only_for_draws_that_meet_the_mode(monkeypatch):
    # random_surface(29, 36, mode="degenerate") takes 31 draws: 29 fail the
    # mode test, one meets it but is singular, and the last is accepted.
    made = []
    init = WehlerSurface.__init__

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(WehlerSurface, "__init__", counting_init)
    s = random_surface(29, 36, mode="degenerate")
    assert len(made) == 2 and made[-1] is s


def test_reduce_mod_bad_prime(w1_qq):
    from fractions import Fraction
    s = WehlerSurface.from_terms(
        QQ, [((0, 0), Fraction(1, 29)), ((1, 1), 1), ((2, 2), 1)],
        [((0, 0, 0, 0), 1)])
    with pytest.raises(BadModulus):
        s.reduce_mod(29)
    assert w1_qq.reduce_mod(31).domain.p == 31
