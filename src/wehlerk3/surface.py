"""Wehler K3 surfaces: the (1,1) and (2,2) forms and everything derived
pointwise from them.

A surface is stored as the 3x3 coefficient matrix a_ij of
L = sum a_ij x_i y_j and the 6x6 canonical coefficient table b[I][K] of
Q = sum b[I][K] xmon_I ymon_K, where the monomial order is
(0,0),(0,1),(0,2),(1,1),(1,2),(2,2) and cross entries carry the full
coefficient of x_i x_j (no halving).  With that convention the classical
G/H fiber quadratics come out of the coefficient polynomials verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul

import numpy as np

from ._engine import (
    PAIR_INDEX,
    PAIRS,
    SWAP_PAIRS,
    SurfaceEngine,
    degenerate_rows,
    gh_formula,
    pair_getter,
    side_index,
    side_rows,
    stack_sides,
)
from .errors import (
    BadModulus,
    DegenerateFiber,
    ExhaustedAttempts,
    InexactDivision,
    InexactQuotient,
    ParseError,
    ZeroForm,
    ZeroInverse,
)
from .field import QQ, PrimeField, is_prime
from .geometry import ProjectivePoint2, point2
from .poly import SparsePoly

VARS6 = ("x0", "x1", "x2", "y0", "y1", "y2")
XVARS = ("x0", "x1", "x2")
YVARS = ("y0", "y1", "y2")
QQ_SEARCH_HEIGHT = 8  # the naive height of the QQ degenerate-base search


def _side_vars(side: str):
    return (XVARS, YVARS)[side_index(side)]


class WehlerSurface:
    """Immutable V(L, Q) in P^2 x P^2 over F_p or QQ; `a` and `b` hold residues."""

    def __init__(self, domain, a, b):
        self.domain = domain
        res = domain.residue
        self.a = tuple(tuple(res(a[i][j]) for j in range(3)) for i in range(3))
        self.b = tuple(tuple(res(b[I][K]) for K in range(6)) for I in range(6))
        if not any(map(any, self.a)):
            raise ZeroForm("L is identically zero")
        if not any(map(any, self.b)):
            raise ZeroForm("Q is identically zero")
        self._cache: dict = {}

    def cached(self, key: tuple, build):
        """The value stored under `key`, made by `build()` on first use.

        Keys are tuples (name, *args).  The names are "L", "Q", "engine",
        "raw" (the coefficient rows of `_raw_rows`), "coeff", "gh",
        "sextic", "degenerate" (both sides' rows of `_degenerate_scan`),
        "fibers" (one side's `_degenerate_record`) and "pairs" (this module;
        the plane-table rows of the rational points, see `pair_rows`),
        "phase_space" (`dynamics`), "chart" and "ram_prime" (`blowup`).
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_terms(cls, domain, l_terms, q_terms) -> "WehlerSurface":
        """Build from sparse entries ((i,j),c) for L and ((i,j,k,l),c) for Q.

        Q indices are symmetrized into canonical slots; repeated entries
        accumulate.
        """
        a = [[0] * 3 for _ in range(3)]
        b = [[0] * 6 for _ in range(6)]
        for (i, j), c in l_terms:
            a[i][j] += c
        for (i, j, k, l), c in q_terms:
            I = PAIR_INDEX[(min(i, j), max(i, j))]
            K = PAIR_INDEX[(min(k, l), max(k, l))]
            b[I][K] += c
        return cls(domain, a, b)

    def __eq__(self, other):
        if not isinstance(other, WehlerSurface):
            return NotImplemented
        return self.domain is other.domain and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((id(self.domain), self.a, self.b))

    def __repr__(self):
        return f"WehlerSurface(domain={self.domain!r}, L={self.l_poly()}, Q={self.q_poly()})"

    @property
    def p(self) -> int | None:
        return getattr(self.domain, "p", None)

    def is_finite(self) -> bool:
        return self.domain is not QQ

    # -- defining forms -----------------------------------------------------

    def l_poly(self) -> SparsePoly:
        def build():
            terms = {}
            for i in range(3):
                for j in range(3):
                    e = [0] * 6
                    e[i] = 1
                    e[3 + j] = 1
                    terms[tuple(e)] = self.a[i][j]
            return SparsePoly(self.domain, VARS6, terms)
        return self.cached(("L",), build)

    def q_poly(self) -> SparsePoly:
        def build():
            terms = {}
            for I, (i, j) in enumerate(PAIRS):
                for K, (k, l) in enumerate(PAIRS):
                    e = [0] * 6
                    e[i] += 1
                    e[j] += 1
                    e[3 + k] += 1
                    e[3 + l] += 1
                    terms[tuple(e)] = self.b[I][K]
            return SparsePoly(self.domain, VARS6, terms)
        return self.cached(("Q",), build)

    def reduce_mod(self, p: int) -> "WehlerSurface":
        """Reduction of a QQ surface modulo an odd prime."""
        if self.domain is not QQ:
            raise ValueError("reduce_mod applies to surfaces over QQ")
        try:
            return WehlerSurface(PrimeField(p), self.a, self.b)
        except ZeroInverse as exc:
            raise BadModulus(f"surface has bad reduction at {p}") from exc

    # -- raw coefficient arrays (engine) --------------------------------------

    def engine(self) -> SurfaceEngine:
        if not self.is_finite():
            raise ValueError("engine requires a finite field surface")
        return self.cached(("engine",), lambda: SurfaceEngine(self.a, self.b, self.domain.p))

    # -- evaluation helpers ----------------------------------------------------

    def line_values(self, side: str, base) -> tuple:
        """L restricted to the fiber over `base`: its 3 linear coefficients."""
        return tuple(map(self.domain.element, _fiber_residues(self, side, base)[0]))

    def quad_values(self, side: str, base) -> tuple:
        """Q restricted to the fiber over `base`: its 6 quadratic coefficients."""
        return tuple(map(self.domain.element, _fiber_residues(self, side, base)[1]))

    def contains(self, a, b) -> bool:
        """Whether (a, b) satisfies L = Q = 0."""
        lc, qv, red = _fiber_residues(self, "x", a)
        b = list(map(self.domain.residue, b))
        return red(sum(map(mul, lc, b))) == 0 and red(quad_at(qv, b, 0)) == 0


def _fiber_residues(s: WehlerSurface, side: str, base):
    """L and Q restricted to the fiber over `base` as plain residues.

    Returns (lc, qv, red): the 3 linear and 6 quadratic coefficients (PAIRS
    order) as ints reduced mod p over F_p or Fractions over QQ, and `red`, the
    reduction that callers apply before testing their own sums against zero
    (the identity over QQ).  `base` may hold anything the domain's `residue` takes.
    """
    lrows, qrows, red = _raw_rows(s, side)
    c = list(map(s.domain.residue, base))
    mon = [c[i] * c[j] for (i, j) in PAIRS]
    lc = tuple(red(sum(map(mul, row, c))) for row in lrows)
    qv = tuple(red(sum(map(mul, row, mon))) for row in qrows)
    return lc, qv, red


def _raw_rows(s: WehlerSurface, side: str):
    """(L rows, Q rows, red) of one side as plain residues, built once per side.

    The rows are `side_rows` of a and b; `red` is x -> x mod p, or the
    identity over QQ.
    """
    def build():
        lrows, qrows = side_rows(s.a, s.b, side)
        p = s.p
        red = (lambda v: v) if p is None else (lambda v: v % p)
        return tuple(map(tuple, lrows)), tuple(map(tuple, qrows)), red
    return s.cached(("raw", side), build)


def quad_at(qv, w, zero):
    """Value at the point w of the quadratic form with coefficients qv (PAIRS order)."""
    return sum((qv[K] * w[k] * w[l] for K, (k, l) in enumerate(PAIRS)), zero)


# -- file format ---------------------------------------------------------------


def parse_surface(text: str) -> WehlerSurface:
    """Parse the line-oriented surface format.

    Line 1 is `p <modulus|Q>`; remaining lines are `L i j c` or
    `Q i j k l c` with integer c, accumulated and symmetrized.  A `#` starts
    a comment that runs to the end of its line.
    """
    lines = [ln for ln in (raw.partition("#")[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty surface file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "p":
        raise ParseError(f"first line must be 'p <modulus|Q>', got {lines[0]!r}")
    if head[1] == "Q":
        domain = QQ
    else:
        try:
            p = int(head[1])
        except ValueError as exc:
            raise ParseError(f"bad modulus {head[1]!r}") from exc
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise BadModulus(f"modulus must be an odd prime, got {p}")
        domain = PrimeField(p)
    l_terms = []
    q_terms = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "L" and len(parts) == 4:
                i, j, c = int(parts[1]), int(parts[2]), int(parts[3])
                if not (0 <= i <= 2 and 0 <= j <= 2):
                    raise ParseError(f"L indices out of range: {ln!r}")
                l_terms.append(((i, j), c))
            elif parts[0] == "Q" and len(parts) == 6:
                i, j, k, l, c = (int(x) for x in parts[1:])
                if not all(0 <= t <= 2 for t in (i, j, k, l)):
                    raise ParseError(f"Q indices out of range: {ln!r}")
                q_terms.append(((i, j, k, l), c))
            else:
                raise ParseError(f"unrecognized entry {ln!r}")
        except ValueError as exc:
            raise ParseError(f"bad integer in {ln!r}") from exc
    return WehlerSurface.from_terms(domain, l_terms, q_terms)


def serialize_surface(s: WehlerSurface) -> str:
    """Canonical text form: sorted entries, zero coefficients skipped."""
    out = ["p Q" if s.domain is QQ else f"p {s.domain.p}"]
    for i in range(3):
        for j in range(3):
            c = s.a[i][j]
            if c:
                out.append(f"L {i} {j} {_coeff_str(c)}")
    for I, (i, j) in enumerate(PAIRS):
        for K, (k, l) in enumerate(PAIRS):
            c = s.b[I][K]
            if c:
                out.append(f"Q {i} {j} {k} {l} {_coeff_str(c)}")
    return "\n".join(out) + "\n"


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ParseError("surface files require integer coefficients")
        return str(c.numerator)
    return str(c)


# -- coefficient polynomials and the G/H system -------------------------------


@dataclass(frozen=True)
class CoefficientPolys:
    """The linear and quadratic coefficient polynomials of one side."""

    side: str
    lc: tuple            # lc[j] = L_j^side, linear in the side's variables
    qc: dict             # qc[(k,l)] (k <= l) = Q_kl^side, quadratic

    def q(self, k: int, l: int) -> SparsePoly:
        return self.qc[(min(k, l), max(k, l))]


@dataclass(frozen=True)
class GHSystem:
    """The fiber-quadratic coefficient system G_k, H_ij of one side."""

    side: str
    g: tuple             # g[k], quartic
    h: dict              # h[(i,j)] (i < j), quartic


@dataclass(frozen=True)
class RamificationSextic:
    """Branch locus of one projection: sigma_side fixes exactly its zeros."""

    side: str
    g: SparsePoly        # degree 6 in the side's own three variables


def coefficient_polys(s: WehlerSurface, side: str) -> CoefficientPolys:
    """L_j and Q_kl as forms in the side's own variables, from its `side_rows`."""
    def build():
        lrows, qrows = side_rows(s.a, s.b, side)
        names = _side_vars(side)
        gens = SparsePoly.gens(s.domain, names)
        mons = [gens[i] * gens[j] for (i, j) in PAIRS]
        zero = SparsePoly.zero(s.domain, names)
        lc = tuple(sum(map(mul, gens, row), zero) for row in lrows)
        qc = {kl: sum(map(mul, mons, row), zero) for kl, row in zip(PAIRS, qrows)}
        return CoefficientPolys(side, lc, qc)
    return s.cached(("coeff", side), build)


def gh_system(s: WehlerSurface, side: str) -> GHSystem:
    """The symbolic G_k and H_ij of `gh_formula`.

    Every G and H is a quartic in the side's own variables.
    """
    def build():
        cp = coefficient_polys(s, side)
        g, h = gh_formula(cp.lc, cp.q)
        for poly in g + tuple(h.values()):
            if poly and poly.total_degree() > 4:
                raise AssertionError("G/H degree bound violated")
        return GHSystem(side, g, h)
    return s.cached(("gh", side), build)


def gh_values(s: WehlerSurface, side: str, base) -> tuple[tuple, dict]:
    """G and H evaluated at one base point, without symbolic polynomials."""
    return gh_formula(s.line_values(side, base), pair_getter(s.quad_values(side, base)))


def gh_vanishes(g, h) -> bool:
    """Whether every G and H vanishes: the fiber is degenerate and needs a chart."""
    return not any(g) and not any(h.values())


def fiber_quadratic(s: WehlerSurface, side: str, base, pair: tuple[int, int]):
    """(A, B, C) with A x_l^2 + B x_k x_l + C x_k^2 = 0 cutting the fiber.

    Raises DegenerateFiber when every G and H vanishes at the base, which is
    the signal to route through a blow-up chart.
    """
    g, h = gh_values(s, side, base)
    if gh_vanishes(g, h):
        raise DegenerateFiber(f"all fiber quadratics vanish over {base}")
    k, l = pair
    return g[k], h[(min(k, l), max(k, l))], g[l]


def branch_quotient(lc, g, h):
    """(q, (i, j)) with q = ((H_ij)^2 - 4 G_i G_j) / (L_k)^2, the same for every pair.

    lc holds L_0..L_2, g G_0..G_2 and h the H_ij as `gh_formula` keys them,
    all `SparsePoly`s of one ring.  q is the exact quotient at the first
    (i, j, k) of SWAP_PAIRS with L_k != 0, and num_k = q * L_k^2 is checked
    for every k.  InexactQuotient is raised when every L_k vanishes, when
    (L_k)^2 does not divide, or when the index pairs disagree.
    """
    nums = {k: h[(i, j)] * h[(i, j)] - 4 * g[i] * g[j] for (i, j, k) in SWAP_PAIRS}
    usable = [ijk for ijk in SWAP_PAIRS if lc[ijk[2]]]
    if not usable:
        raise InexactQuotient("every linear coefficient form L_k vanishes")
    i, j, k = usable[0]
    try:
        q = nums[k].divide_exact(lc[k] * lc[k])
    except InexactDivision as exc:
        raise InexactQuotient(f"(L_{k})^2 does not divide H_{i}{j}^2 - 4 G_{i} G_{j}") from exc
    if any(nums[m] != q * (lc[m] * lc[m]) for (_, _, m) in SWAP_PAIRS):
        raise InexactQuotient("the branch form disagrees between index pairs")
    return q, (i, j)


def ramification_sextic(s: WehlerSurface, side: str) -> RamificationSextic:
    """The degree-6 branch form ((H_ij)^2 - 4 G_i G_j) / (L_k)^2.

    `branch_quotient` divides exactly and checks that every index pair
    gives the same form.
    """
    def build():
        sys = gh_system(s, side)
        g_poly, _ = branch_quotient(coefficient_polys(s, side).lc, sys.g, sys.h)
        if g_poly and g_poly.total_degree() > 6:
            raise InexactQuotient("ramification form has degree > 6")
        return RamificationSextic(side, g_poly)
    return s.cached(("sextic", side), build)


# -- degenerate fibers ----------------------------------------------------------


@dataclass(frozen=True)
class DegenerateFiberInfo:
    """A positive-dimensional fiber: its base point and witness kind."""

    base: ProjectivePoint2
    kind: str            # "line", "conic" or "plane"


def _fiber_restriction(s: WehlerSurface, side: str, base):
    """Kind of the fiber over `base` and a basis (u, v) of its line L = 0.

    kind is "finite", "line" (Q vanishes on the whole line), "conic" (L
    vanishes identically, Q does not) or "plane"; the basis, of plain
    residues as `_fiber_residues` gives them, is None for the last two.
    """
    lc, qv, red = _fiber_residues(s, side, base)
    if not any(lc):
        return ("conic" if any(qv) else "plane"), None
    c0, c1, c2 = lc
    if c2:
        u, v = (c2, 0, -c0), (0, c2, -c1)
    elif c1:
        u, v = (c1, -c0, 0), (0, 0, 1)
    else:
        u, v = (0, 1, 0), (0, 0, 1)
    # Q(s u + t v) = s^2 Q(u) + s t (Q(u + v) - Q(u) - Q(v)) + t^2 Q(v).
    if any(red(quad_at(qv, w, 0)) for w in (u, v, tuple(map(add, u, v)))):
        return "finite", (u, v)
    return "line", (u, v)


def _qq_candidates():
    """Primitive integer triples of height <= QQ_SEARCH_HEIGHT, first nonzero entry positive."""
    box = range(-QQ_SEARCH_HEIGHT, QQ_SEARCH_HEIGHT + 1)
    return (tuple(map(Fraction, c)) for c in product(box, repeat=3)
            if c > (0, 0, 0) and gcd(*c) == 1)


def degenerate_fibers(s: WehlerSurface, side: str):
    """Base points with positive-dimensional fiber and vanishing G/H system.

    A new list of the side's `_degenerate_record`, in base order.  It is
    exhaustive over F_p; over QQ it is complete only up to naive height
    QQ_SEARCH_HEIGHT (the worked example's centers have height 1).
    """
    return list(_degenerate_record(s, side).values())


def _degenerate_record(s: WehlerSurface, side: str) -> dict:
    """{raw base: DegenerateFiberInfo} of one side, in base order, built once.

    `_fiber_restriction` classifies the bases of `_degenerate_scan` over F_p
    and the height box over QQ.  A fiber that is not finite has Q = 0 on its
    line or L = 0, and every G and H has degree 2 in L, so the G/H system
    vanishes there.  A scanned base with a finite fiber is an internal
    error, raised rather than dropped: the record lists exactly the scanned rows.
    """
    def build():
        finite = s.is_finite()
        cands = (s.engine().table.pts[_degenerate_scan(s)[side_index(side)]].tolist()
                 if finite else _qq_candidates())
        found = []
        for c in cands:
            kind = _fiber_restriction(s, side, c)[0]
            if kind != "finite":
                found.append(DegenerateFiberInfo(point2(s.domain, *c), kind))
            elif finite:
                raise AssertionError(
                    f"scanned degenerate {side}-base {tuple(c)} has a finite fiber")
        found.sort(key=lambda d: d.base.raw)
        return {d.base.raw: d for d in found}

    return s.cached(("fibers", side), build)


def _degenerate_scan(s: WehlerSurface) -> tuple:
    """(x rows, y rows): the table rows, ascending, of each side's degenerate bases.

    A surface from `random_surface` carries its draw's rows; any other scans
    both sides with one stacked call on first use.
    """
    return s.cached(("degenerate",), lambda: _scan_draws([(s.a, s.b)], s.p)[0])


def _scan_draws(block: list, p: int) -> list:
    """(x rows, y rows) of each draw (a, b) of the block, by one `degenerate_rows` call."""
    found = degenerate_rows(*stack_sides(*(np.array(m, dtype=np.int64) for m in zip(*block))), p)
    return list(zip(found[::2], found[1::2]))


# -- rational points --------------------------------------------------------------


def pair_rows(s: WehlerSurface) -> tuple[np.ndarray, np.ndarray]:
    """Plane-table rows (of a, of b) of every rational point, lex sorted.

    They come from the x-side root pass, which runs once per surface; only
    these rows are cached, not the points' coordinates.  The arrays are
    read-only, because a `PhaseSpace` with no boundary record holds them as
    its own rows.
    """
    def build():
        rows = s.engine().fiber_pairs("x")
        for r in rows:
            r.flags.writeable = False
        return rows

    return s.cached(("pairs",), build)


def surface_pairs(s: WehlerSurface) -> np.ndarray:
    """All rational points as an (N, 6) int array [a | b], lex sorted.

    Built from `pair_rows` on each call.
    """
    return s.engine().table.coords(*pair_rows(s))


def table_points(s: WehlerSurface, rows) -> list:
    """The points at the given plane-table rows, one object per distinct row.

    Table rows are canonical already, so they become points as they stand.
    """
    rows = np.asarray(rows, dtype=np.int64).tolist()
    distinct = list(dict.fromkeys(rows))
    made = {row: ProjectivePoint2(tuple(coords))
            for row, coords in zip(distinct, s.engine().table.pts[distinct].tolist())}
    return [made[row] for row in rows]


def enumerate_points(s: WehlerSurface):
    """All solutions of L = Q = 0 as canonical point pairs, lex ordered."""
    return list(zip(*(table_points(s, rows) for rows in pair_rows(s))))


def point_count(s: WehlerSurface) -> int:
    return len(pair_rows(s)[0])


@dataclass(frozen=True)
class SmoothnessReport:
    """Result of the rational-point Jacobian test.

    A True verdict means "no rational singular point"; singular points over
    field extensions are invisible to this check, so it is a necessary but
    not sufficient smoothness condition.  `points_checked` counts the
    rational points the verdict covers, all N of them, although the Jacobian
    is evaluated only where a singular one can lie (`is_smooth_rational`);
    `singular_points` holds the first 16 singular ones in lex order.
    """

    no_rational_singular_point: bool
    points_checked: int
    singular_points: tuple

    def __bool__(self) -> bool:
        return self.no_rational_singular_point


def is_smooth_rational(s: WehlerSurface) -> SmoothnessReport:
    """Rank-2 Jacobian test of (L, Q) at every rational point.

    Only points whose x-fiber does not have exactly two rational points can
    be singular, so `smooth_scan` runs on those rows alone: O(p) of N ~ p^2.
    Let P = (a, b) lie on a fiber with two rational points.  That fiber is
    finite (a line fiber has p + 1 points, a conic in P^2 has 1, p + 1 or
    2p + 1, a plane fiber p^2 + p + 1), so l = L(a, .) != 0 and b is a
    simple root of q = Q(a, .) on the line l.y = 0.  For any other point d
    of that line, q(b + s d) = 2s B(b, d) + s^2 q(d) with B(b, d) != 0 (p
    is odd), so grad q(b) is not a multiple of l, and the y-block
    [l; grad_y Q] of the Jacobian already has rank 2.  The rows scanned are
    thus those over one-point x-bases (a double root) and over degenerate
    x-bases.
    """
    eng = s.engine()
    x_rows, y_rows = pair_rows(s)
    maybe = np.flatnonzero(np.bincount(x_rows)[x_rows] != 2)
    bad = maybe[eng.smooth_scan(eng.table.coords(x_rows[maybe], y_rows[maybe]))]
    sing = tuple(zip(*(table_points(s, rows[bad[:16]]) for rows in (x_rows, y_rows))))
    return SmoothnessReport(len(bad) == 0, len(x_rows), sing)


# -- random surfaces ----------------------------------------------------------------


# The largest block of `random_surface` draws tested for the mode at once.
# Blocks grow 1, 2, 4, 8, so a surface accepted early wastes few draws.  At
# p = 101, degenerate surfaces of 30-36 draws took 7.5 ms each with blocks
# capped at 8, against 8.2 ms at 4, 7.7 ms at 16, 9.2 ms at 32 and 13.4 ms
# one draw at a time: past 8 the draws after the accepted one cost more
# than the calls they save (median of 7 rounds, one process, 2-core x86 VM).
_DRAW_BLOCK = 8


def random_surface(
    p: int,
    seed: int,
    mode: str = "nondegenerate",
    max_draws: int = 10_000,
) -> WehlerSurface:
    """Rejection-sample a surface over F_p with reproducible draws.

    mode "nondegenerate": no degenerate fibers on either side.
    mode "degenerate": at least one degenerate fiber on either side.
    mode "any": only the smoothness filter.
    Every accepted surface passes the rational-point Jacobian check of
    `is_smooth_rational`, which evaluates the Jacobian only over x-bases with
    one rational point or a degenerate fiber, where a rational singular point
    can lie; its verdict covers all N points.

    Every draw consumes the same 45 rng values whatever its fate.  Draws
    come in blocks of 1, 2, 4 and then `_DRAW_BLOCK` draws, and a block
    never goes past max_draws.  A block is tested for the degeneracy mode
    first, by one `degenerate_rows` call on the stacked side rows of all its
    draws, both sides; then each draw that meets the mode, in draw order,
    for smoothness, which needs the x-side root pass.  A draw is accepted
    when it is smooth and meets the mode.  No draw's rng values or verdict
    depend on the draws around it, so a seed gives the same surface after
    the same number of draws as testing draw by draw, and the smallest
    max_draws that accepts it is the same; the rest of the accepting block
    is drawn and scanned for nothing.  A `WehlerSurface` is made only for a
    draw that meets the mode, with a `SurfaceEngine` and the degenerate
    rows of both sides in its cache.
    """
    if p < 5:
        raise BadModulus(f"random surfaces need p >= 5, got {p}")
    field = PrimeField(p)
    rng = random.Random(seed)
    if mode not in ("nondegenerate", "degenerate", "any"):
        raise ValueError(f"unknown mode {mode!r}")
    drawn, size = 0, 1
    while drawn < max_draws:
        block, count = [], min(size, max_draws - drawn)
        for _ in range(count):
            a = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            b = [[rng.randrange(p) for _ in range(6)] for _ in range(6)]
            if any(map(any, a)) and any(map(any, b)):  # else ZeroForm
                block.append((a, b))
        drawn += count
        size = min(2 * size, _DRAW_BLOCK)
        for cand in _meeting_mode(field, block, mode):
            if is_smooth_rational(cand):
                return cand
    raise ExhaustedAttempts(f"no acceptable surface in {max_draws} draws at p={p}")


def _meeting_mode(field, block: list, mode: str):
    """The block's draws (a, b) that meet the mode, as surfaces, in draw order.

    Outside mode "any" both sides of every draw are scanned by one
    `_scan_draws` call, and each surface yielded carries its engine and
    degenerate rows (`_degenerate_scan`).
    """
    if mode == "any":
        yield from (WehlerSurface(field, a, b) for a, b in block)
        return
    if not block:
        return
    p = field.p
    for (a, b), rows in zip(block, _scan_draws(block, p)):
        # "degenerate" needs a degenerate fiber, "nondegenerate" none.
        if any(map(len, rows)) != (mode == "degenerate"):
            continue
        cand = WehlerSurface(field, a, b)
        cand.cached(("engine",), lambda: SurfaceEngine(a, b, p))
        cand.cached(("degenerate",), lambda: rows)
        yield cand
