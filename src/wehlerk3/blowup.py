"""Extension of the involutions across degenerate fibers.

A degenerate base point c is blown up into the pencil of lines through it,
x(s, eps) = s0*c + eps*delta(s), with (s0 : s1) the line and eps = w - t1
the coordinate along it (w the affine coordinate of the line, t1 its value
at c).  Substituting the pencil into the side's linear and quadratic
coefficient forms, taking G/H of the substituted forms and dividing them by
their highest common power of eps yields quadratics whose specialization at
the exceptional fiber eps = 0 cuts each line's two intersection points with
the degenerate fiber; L is divided by its own power of eps.  The involution
then swaps the two roots line by line.

Charts exist only over F_p, and every form along the pencil is built as an
int64 grid over (power of eps, power of s1), the power of s0 following from
homogeneity.  A product is one convolution of grids mod p, so `gh_formula`
runs on grids unchanged; the power of eps divided out is the first nonzero
row, and an exceptional form is the row at that power.  Only
`ramification_prime` (and `debug_dump`) lift the divided grids to
`SparsePoly`, for the exact division of `branch_quotient`.

The parametrization degenerates at s = (0,1), where the specialized
coefficient triples can vanish identically; the common vanishing order of
the triple at each parameter is stripped, which realizes the projective
limit of the quadratic along the pencil.  Stripping reads one Taylor table
per binary form (`BinaryForm.taylor_table`: its Taylor coefficients at all
p+1 parameters), whose first nonzero row is the order and whose row at the
order is the stripped value; root orders, rational roots and the s0 power
of the branch form are read from the same table.

Each chart keeps one membership table: the degenerate fiber's rational
points (read from `pair_rows`) against the p+1 line parameters, filled
by evaluating the stripped pair quadratics and L' at every point and every
parameter at once, and stored as its true (line, fiber row) pairs.  Boundary
points (`points_at`) and line parameters (`resolve_s`) are both read from
it; `BlowupChart.matches` is the scalar form of one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from ._engine import PAIR_INDEX, PAIRS, SWAP_PAIRS, gh_formula, pair_getter, side_index
from .errors import (
    AmbiguousS,
    InexactQuotient,
    NoRationalS,
    NotDegenerate,
    NotOnSurface,
)
from .geometry import ProjectivePoint1, ProjectivePoint2, point2
from .poly import SparsePoly
from .surface import (
    WehlerSurface,
    branch_quotient,
    pair_rows,
    table_points,
)

PENCIL_VARS = ("s0", "s1", "eps")


# -- binary forms in (s0, s1) -------------------------------------------------

def line_parameters(p: int) -> list[tuple[int, int]]:
    """The p + 1 points of P^1(F_p): (0, 1), then (1, t) for t = 0..p-1."""
    return [_parameter(j) for j in range(p + 1)]


def _parameter_index(p: int, s0: int, s1: int) -> int:
    """Position of (s0 : s1) in `line_parameters(p)`."""
    return 0 if s0 % p == 0 else 1 + s1 * pow(s0, p - 2, p) % p


def _parameter(j: int) -> tuple[int, int]:
    """Entry j of `line_parameters`, the inverse of `_parameter_index`."""
    return (0, 1) if j == 0 else (1, j - 1)


class BinaryForm:
    """Homogeneous form in (s0, s1) over F_p, as dense coefficients.

    coeffs[k] multiplies s0^(n-k) * s1^k.  The zero form is represented by
    all-zero coefficients of the nominal degree.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = [c % p for c in coeffs]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __call__(self, s0: int, s1: int) -> int:
        acc = 0
        n = self.degree
        for k, c in enumerate(self.coeffs):
            if c:
                acc += c * pow(s0, n - k, self.p) * pow(s1, k, self.p)
        return acc % self.p

    def taylor_table(self) -> np.ndarray:
        """(degree + 1, p + 1) Taylor coefficients at every line parameter.

        Column j is the parameter `line_parameters(p)[j]`, and entry [m, j]
        is the value at that parameter of f / ell^m, ell the linear form
        vanishing there, whenever ell^m divides f.  At (1 : t) that is
        T_m = sum_k C(k, m) c_k t^(k-m), the m-th coefficient of f(u) in
        powers of u - t; at (0 : 1) it is c_(n-m), the coefficient left in
        front of s1^(n-m) once s0^m is divided out.  The order of f at a
        parameter is the first nonzero row of its column.

        The unreduced sums are below p^2 * sum_k C(k, m) = C(n + 1, m + 1) p^2,
        so entries stay < 35p^2 in int64 for degree <= 6; chart forms have
        degree <= 6, and charts need the plane table, so p <= _ENUM_P_CAP.
        """
        p, n, c = self.p, self.degree, self.coeffs
        shift = np.array([[comb(m + j, m) * c[m + j] if m + j <= n else 0
                           for j in range(n + 1)] for m in range(n + 1)], dtype=np.int64)
        t = np.arange(p, dtype=np.int64)
        powers = np.ones((n + 1, p), dtype=np.int64)
        for j in range(1, n + 1):
            powers[j] = powers[j - 1] * t % p
        table = np.empty((n + 1, p + 1), dtype=np.int64)
        table[:, 0] = c[::-1]
        table[:, 1:] = shift @ powers % p
        return table

    def orders(self) -> np.ndarray:
        """Root multiplicity at every line parameter; degree + 1 for the zero form."""
        nonzero = self.taylor_table() != 0
        return np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), self.degree + 1)

    def order_at(self, s0: int, s1: int) -> int:
        """Multiplicity of the root (s0, s1); degree + 1 for the zero form."""
        return int(self.orders()[_parameter_index(self.p, s0, s1)])

    def strip_power_of_s0(self) -> tuple[int, "BinaryForm"]:
        """(k, f / s0^k) with k maximal; the zero form is returned unchanged.

        k is the order at (0 : 1), the number of trailing zero coefficients.
        """
        if self.is_zero():
            return 0, self
        k = self.order_at(0, 1)
        return k, BinaryForm(self.p, self.coeffs[:len(self.coeffs) - k])

    def rational_roots(self) -> list[tuple[ProjectivePoint1, int]]:
        """Roots in P^1(F_p) with multiplicities."""
        if self.is_zero():
            return []
        return [(ProjectivePoint1(s), m)
                for s, m in zip(line_parameters(self.p), self.orders().tolist()) if m]

    def __repr__(self):
        return f"BinaryForm({self.coeffs})"


def _exceptional_form(poly: SparsePoly, p: int, degree: int) -> BinaryForm:
    """Specialize a poly in (s0, s1, eps) at eps = 0 and read off the s-form."""
    coeffs = [0] * (degree + 1)
    for (e0, e1, ee), c in poly.terms.items():
        if e0 + e1 != degree:
            raise InexactQuotient(
                f"expected s-degree {degree}, found monomial of s-degree {e0 + e1}")
        if ee == 0:
            coeffs[e1] = int(c)
    return BinaryForm(p, coeffs)


def _stripped_rows(forms) -> np.ndarray:
    """(len(forms), p + 1): a group of forms stripped to their common order.

    Column j holds the group's row of the Taylor tables at the group's
    minimum order there; forms of higher order read 0 in that row.  A column
    is all zero only where every form vanishes identically.  A value carries
    a nonzero scalar that depends only on the order and the parameter, so
    forms stripped together to the same order stay projectively consistent,
    which is all the chart solving needs.
    """
    tables = np.stack([f.taylor_table() for f in forms])
    order = (tables != 0).any(axis=0).argmax(axis=0)
    return tables[:, order, np.arange(tables.shape[2])]


def _column(rows: np.ndarray, s: tuple[int, int]):
    """The column of stripped rows at parameter s, as ints; None if all zero."""
    vals = tuple(rows[:, _parameter_index(rows.shape[1] - 1, *s)].tolist())
    return vals if any(vals) else None


# -- forms along the pencil ------------------------------------------------------

# A form of s-degree n <= 4 in (s0, s1, eps) is a flat int64 grid with row
# stride 5: entry 5*e + j multiplies eps^e s1^j s0^(n - j), the power of s0
# following from homogeneity.  The pencil's coordinates have eps- and
# s1-degree <= 1 and the chart's forms are at most quartic in them, so every
# form fits with e, j <= 4, a product of grids is their 1-D convolution (j
# sums never pass 4, so no term crosses into the next row) and its first 25
# entries hold every term.  Entries are residues, so a convolution's sums
# are < 25p^2.
_STRIDE = 5
_GRID = _STRIDE * _STRIDE
# The s1 power of delta_i in the pencil, per dehomogenizing index d: delta
# is (0, s0, s1), (s0, 0, s1) or (s1, s0, 0); None for its zero entry.
_DELTA_S1 = ((None, 0, 1), (0, None, 1), (1, 0, None))


def _product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.convolve(a, b)[:_GRID] % p


class _Grid:
    """A grid under the ring operations `gh_formula` uses, mod p."""

    __slots__ = ("c", "p")

    def __init__(self, c: np.ndarray, p: int):
        self.c = c
        self.p = p

    def __add__(self, other):
        return _Grid((self.c + other.c) % self.p, self.p)

    def __sub__(self, other):
        return _Grid((self.c - other.c) % self.p, self.p)

    def __mul__(self, other):
        if isinstance(other, _Grid):
            return _Grid(_product(self.c, other.c, self.p), self.p)
        return _Grid(self.c * other % self.p, self.p)

    __rmul__ = __mul__


def _eps_order(grids: np.ndarray):
    """The lowest power of eps in a stack of (5, 5) grids; None if all are zero."""
    rows = grids.any(axis=(0, 2))
    return int(rows.argmax()) if rows.any() else None


def _lift(grid: np.ndarray, degree: int, domain) -> SparsePoly:
    """A (rows, 5) grid of s-degree `degree` as a poly in (s0, s1, eps)."""
    return SparsePoly(domain, PENCIL_VARS, {
        (degree - j, j, e): c
        for e, row in enumerate(grid.tolist()) for j, c in enumerate(row) if c})


# -- charts ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the exceptional fiber: moving coordinates plus its line."""

    side: str
    center: ProjectivePoint2
    s: ProjectivePoint1
    moving: ProjectivePoint2


class BlowupChart:
    """The divided G/H/L system of one degenerate base point.

    side "x" means the center is a degenerate base of the first projection,
    so the moving coordinates are the y variables, and symmetrically for
    side "y".
    """

    def __init__(self, surface: WehlerSurface, side: str, center: ProjectivePoint2):
        self.surface = surface
        self.side = side
        self.center = center
        self.p = surface.domain.p
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        p = self.p
        center = self.center.coords
        d = next(i for i, c in enumerate(center) if c)
        assert center[d] == 1, "center must be canonical"
        self.dehom_index = d
        # t1 is the center's w = x_j / x_d, with j = 0 if d == 1 else 1.
        self.t1 = center[0 if d == 1 else 1]

        # The pencil x(s, eps) = s0*center + eps*delta(s) in the side's
        # variables, delta = (0, s0, s1), (s0, 0, s1) or (s1, s0, 0).
        pencil = np.zeros((3, _GRID), dtype=np.int64)
        pencil[:, 0] = center
        for i, j in enumerate(_DELTA_S1[d]):
            if j is not None:
                pencil[i, _STRIDE + j] = 1
        lrows, qrows = self.surface.engine().rows(self.side)
        mons = np.stack([_product(pencil[i], pencil[j], p) for (i, j) in PAIRS])
        lc = lrows @ pencil % p
        qc = qrows @ mons % p
        g, h = gh_formula([_Grid(f, p) for f in lc],
                          pair_getter([_Grid(f, p) for f in qc]))
        self._gh = np.stack([f.c for f in (*g, *h.values())]).reshape(6, _STRIDE, _STRIDE)
        self._l = lc.reshape(3, _STRIDE, _STRIDE)
        e = _eps_order(self._gh)
        if e is None:
            raise NotDegenerate(f"G/H system vanishes identically at {self.center}")
        if e == 0:
            raise NotDegenerate(
                f"{self.center} is not a degenerate {self.side}-side base point")
        self.e = e
        self._e_l = _eps_order(self._l)

        # Specializations at the exceptional fiber eps = 0, as binary s-forms:
        # the rows at e and at L's own order.  Row e is nonzero, so the divided
        # system never vanishes on the exceptional fiber.
        forms = [BinaryForm(p, row) for row in self._gh[:, e].tolist()]
        self.g_forms = dict(enumerate(forms[:3]))
        self.h_forms = dict(zip(h, forms[3:]))
        self.l_forms = [BinaryForm(p, row[:2]) for row in self._l[:, self._e_l].tolist()]
        self._build_table()

    def divided_system(self):
        """(L', G', H'): the divided system as polys in (s0, s1, eps).

        L' is (L'_0, L'_1, L'_2), G' maps k to G'_k and H' (i, j) to H'_ij.
        Each is its grid with the rows below its power of eps dropped, so
        the exceptional forms are the polys at eps = 0.
        """
        dom = self.surface.domain
        lp = tuple(_lift(f[self._e_l:], 1, dom) for f in self._l)
        gh = [_lift(f[self.e:], 4, dom) for f in self._gh]
        return lp, dict(enumerate(gh[:3])), dict(zip(self.h_forms, gh[3:]))

    def _build_table(self):
        """`rows`: the fiber's plane-table rows; (`line`, `moving`): its true entries.

        The fiber points are the surface points over the center, in
        `pair_rows` (lex) order; an entry is a position in `line_parameters`
        and a fiber row on that line, sorted by line, then lex.  Each pair
        group (G'_k, H'_kl, G'_l) and the L' group is stripped at every
        parameter at once (`_stripped_rows`), so a condition is one column
        of coefficients per parameter, all zero where the group vanishes
        identically (skipped, as in `matches`).  Every point is tested
        against every parameter at once: entries < p and 3 terms keep
        sums < 3p^3.

        Q' (Q along the pencil, divided by its own power of eps and stripped
        the same way) never decides an entry, so it is not a row.  Fix a line
        s, a local parameter tau of P^1 at s and x = x(s, eps).  For a form in
        y with coefficients in F_p[tau, eps], let v be the exponent of its
        lowest term in the order (eps power, tau power) and in(.) that term's
        coefficient, a form in y.  Up to a nonzero scalar a stripped group is
        in(.) of the group, so the rows are in(L), in(Q) and in(P_kl), where
        P_kl = G_k y_l^2 + H_kl y_k y_l + G_l y_k^2, and P_kl's row is kept
        only when v(P_kl) has eps power e.  For (k, l, m) in SWAP_PAIRS,
            P_kl(x, y) = Q(x, L_m y - mu e_m)
                       = L_m^2 Q(x, y) - L_m mu B(x; y, e_m) + mu^2 Q(x, e_m)
        with mu = L(x, y) and B the polar form of Q.  The first line puts
        every coefficient of P_kl at v >= 2 v(L) + v(Q).  Now let
        in(L)(y) = 0 and in(Q)(y) != 0, and pick m with in(L)_m != 0, so
        v(L_m) = v(L) < v(mu): the last two terms lie above 2 v(L) + v(Q),
        and the lowest term of P_kl(x, y) is in(L_m)^2 in(Q)(y), exactly
        there.  So v(P_kl) = 2 v(L) + v(Q); as every pair lies at or above
        that, its eps power is e, the row is kept, and it rejects y, for
        in(P_kl)(y) = in(L_m)^2 in(Q)(y) != 0.  Hence L' and the pair rows
        imply Q' at every s, (0, 1) included, whatever Q's power of eps.
        """
        p = self.p
        self._stripped_pairs = {
            (k, l): _stripped_rows((self.g_forms[k], self.h_forms[(k, l)], self.g_forms[l]))
            for (k, l, _m) in SWAP_PAIRS}
        self._stripped_line = _stripped_rows(self.l_forms)
        tbl = self.surface.engine().table
        own = side_index(self.side)
        pairs = pair_rows(self.surface)
        base, moving = pairs[own], pairs[1 - own]
        rows = moving[base == tbl.index_of(self.center.raw)]
        fiber = tbl.pts[rows]
        mon = np.stack([fiber[:, k] * fiber[:, l] for (k, l) in PAIRS], axis=1)
        hit = (fiber @ self._stripped_line) % p == 0
        for (k, l, _m) in SWAP_PAIRS:
            at = [PAIR_INDEX[kl] for kl in ((l, l), (k, l), (k, k))]
            hit &= (mon[:, at] @ self._stripped_pairs[(k, l)]) % p == 0
        self.rows = rows
        self.line, at = np.nonzero(hit.T)
        self.moving = rows[at]

    # -- per-parameter data ---------------------------------------------------

    def pair_triple(self, pair: tuple[int, int], s: tuple[int, int]):
        """Stripped (A, B, C) of the pair quadratic at parameter s, or None.

        `pair` is the (k, l) of a SWAP_PAIRS entry.  The common vanishing
        order of the three forms at s is divided out first; None means the
        triple is identically zero even then.
        """
        return _column(self._stripped_pairs[pair], s)

    def matches(self, moving, s: tuple[int, int]) -> bool:
        """The membership predicate: all pair quadratics plus L'.

        This is the scalar definition of one entry of the membership table
        built by `_build_table`, kept as its reference.
        """
        p = self.p
        mv = [int(c) for c in moving]
        for (k, l, _m) in SWAP_PAIRS:
            triple = self.pair_triple((k, l), s)
            if triple is None:
                continue
            A, B, C = triple
            if (A * mv[l] * mv[l] + B * mv[k] * mv[l] + C * mv[k] * mv[k]) % p:
                return False
        lc = _column(self._stripped_line, s)
        return lc is None or (lc[0] * mv[0] + lc[1] * mv[1] + lc[2] * mv[2]) % p == 0

    # -- table queries ------------------------------------------------------------

    def rows_at(self, s: tuple[int, int]) -> list[int]:
        """The fiber rows the table puts on the line s, in lex order; AmbiguousS past two."""
        j = _parameter_index(self.p, *s)
        lo, hi = self.line.searchsorted((j, j + 1)).tolist()
        if hi - lo > 2:
            raise AmbiguousS(
                f"{hi - lo} boundary points on line {_parameter(j)} over {self.center}")
        return self.moving[lo:hi].tolist()

    def points_at(self, s: tuple[int, int]) -> list:
        """The distinct rational boundary points on the line s, as `rows_at` lists them."""
        return table_points(self.surface, self.rows_at(s))

    def __repr__(self):
        return (f"BlowupChart(side={self.side!r}, center={self.center}, "
                f"e={self.e}, t1={self.t1})")

    def debug_dump(self) -> str:
        """Sorted term lists of the divided system, for golden tests."""
        lp, gp, hp = self.divided_system()
        return "\n".join([repr(self), *(f"G'{k} = {gp[k]}" for k in range(3)),
                          *(f"H'{ij} = {hp[ij]}" for ij in sorted(hp)),
                          *(f"L'{m} = {lp[m]}" for m in range(3))])


def build_chart(surface: WehlerSurface, side: str, center) -> BlowupChart:
    """Chart at a degenerate base point; `BlowupChart` raises NotDegenerate otherwise."""
    if not surface.is_finite():
        raise ValueError("blow-up charts need a finite field surface")
    if not isinstance(center, ProjectivePoint2):
        center = point2(surface.domain, *center)
    return BlowupChart(surface, side, center)


def chart_for(surface: WehlerSurface, side: str, center: ProjectivePoint2) -> BlowupChart:
    return surface.cached(("chart", side, center.raw), lambda: build_chart(surface, side, center))


def resolve_s(chart: BlowupChart, moving) -> ProjectivePoint1:
    """The unique line parameter whose chart system vanishes at the point.

    Reads the lines of the point's plane-table row from the chart's (line,
    row) pairs: NotOnSurface off the fiber, NoRationalS / AmbiguousS for no
    line / several lines.
    """
    if not isinstance(moving, ProjectivePoint2):
        moving = point2(chart.surface.domain, *moving)
    mv = moving.raw
    row = chart.surface.engine().table.index_of(mv)
    hits = chart.line[chart.moving == row].tolist()
    if not hits:
        if row not in chart.rows:
            raise NotOnSurface(f"({mv}) is not on the fiber over {chart.center}")
        raise NoRationalS(f"no rational line parameter for {mv} over {chart.center}")
    if len(hits) > 1:
        raise AmbiguousS(f"{len(hits)} line parameters match {mv} over {chart.center}")
    return ProjectivePoint1(_parameter(hits[0]))


def exceptional_points(chart: BlowupChart) -> list[BoundaryPoint]:
    """All boundary points of the chart, ordered by (line, moving point).

    Per line parameter in `line_parameters` order, the table's points on
    that line in lex order.
    """
    crowded = np.bincount(chart.line, minlength=1) > 2
    chart.rows_at(_parameter(int(crowded.argmax())))  # AmbiguousS at a line past two points
    line = chart.line.tolist()
    lines = {k: ProjectivePoint1(_parameter(k)) for k in set(line)}
    return [BoundaryPoint(chart.side, chart.center, lines[j], pt)
            for j, pt in zip(line, table_points(chart.surface, chart.moving))]


def sigma_extended(chart: BlowupChart, P: BoundaryPoint) -> BoundaryPoint:
    """Swap the two boundary points on P's line; ramified lines fix P.

    The pair on each line is the full verified root set of the chart system,
    so the swap is total and involutive by construction.
    """
    rows = chart.rows_at(P.s.raw)
    row = chart.surface.engine().table.index_of(P.moving.raw)
    if row not in rows:
        raise NotOnSurface(f"{P.moving} is not a chart root at s={P.s} over {chart.center}")
    others = [r for r in rows if r != row]
    if others:
        return BoundaryPoint(P.side, P.center, P.s, table_points(chart.surface, others)[0])
    return P


@dataclass(frozen=True)
class RamificationPrime:
    """The degree <= 6 branch form on the exceptional fiber.

    `form` has the spurious common power of s0 (the parametrization's
    artifact at s = (0,1)) divided out; `s0_stripped` records how much was
    removed.  Rational roots mark the lines whose two intersection points
    collide, i.e. the boundary fixed points of the extended involution.
    """

    chart: BlowupChart
    form: BinaryForm
    s0_stripped: int
    pair: tuple[int, int]

    def rational_roots(self):
        return self.form.rational_roots()


def ramification_prime(chart: BlowupChart) -> RamificationPrime:
    """((H'_ij)^2 - 4 G'_i G'_j) / (L'_k)^2 specialized to the exceptional fiber.

    `branch_quotient` divides the chart's `divided_system` exactly in the
    (s0, s1, eps) ring and checks that every index pair gives the same form;
    any full power of eps is removed before specializing, and finally the
    common s0 power is stripped.
    """
    def build():
        quotient, used_pair = branch_quotient(*chart.divided_system())
        if not quotient.is_zero():
            quotient = quotient.divide_linear_power(
                "eps", 0, quotient.vanishing_order("eps", 0))
        raw = _exceptional_form(quotient, chart.p, 6)
        stripped_k, form = raw.strip_power_of_s0()
        return RamificationPrime(chart, form, stripped_k, used_pair)
    return chart.surface.cached(("ram_prime", chart.side, chart.center.raw), build)
