"""Extension of the involutions across degenerate fibers.

A degenerate base point is blown up into the pencil of lines through it.
Substituting the pencil parametrization into the G/H system and dividing by
the highest common power of (w - t1) (w the affine coordinate along each
line, t1 its value at the center) yields quadratics whose specialization at
the exceptional fiber cuts each line's two intersection points with the
degenerate fiber.  The involution then swaps the two roots line by line.

The parametrization degenerates at s = (0,1), where the specialized
coefficient triples can vanish identically; the common vanishing order of
the triple at each parameter is stripped, which realizes the projective
limit of the quadratic along the pencil.

Each chart keeps one membership table: the degenerate fiber's rational
points (read from `surface_pairs`) against the p+1 line parameters, filled
by evaluating every stripped condition at every point at once.  Boundary
points (`points_at`) and line parameters (`resolve_s`) are both read from
it; `BlowupChart.matches` is the scalar form of the same test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import PAIR_INDEX, SWAP_PAIRS
from .errors import (
    AmbiguousS,
    InexactQuotient,
    NoRationalS,
    NotDegenerate,
    NotOnSurface,
)
from .field import PrimeField
from .geometry import ProjectivePoint1, ProjectivePoint2, point1, point2
from .poly import SparsePoly
from .surface import (
    PAIRS,
    WehlerSurface,
    XVARS,
    YVARS,
    _fiber_restriction,
    gh_system,
    surface_pairs,
)

SWVARS = ("s0", "s1", "w")


# -- binary forms in (s0, s1) -------------------------------------------------

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

    def order_at(self, s0: int, s1: int) -> int:
        """Multiplicity of the root (s0, s1); degree + 1 for the zero form."""
        if self.is_zero():
            return self.degree + 1
        return self._divide_out(s0, s1)[0]

    def _divide_out(self, s0: int, s1: int) -> tuple[int, "BinaryForm"]:
        """(m, f / ell^m) with m maximal, ell the linear form vanishing at (s0, s1).

        The form must be nonzero.
        """
        f = self
        m = 0
        while True:
            q = f.divide_root(s0, s1)
            if q is None:
                return m, f
            f = q
            m += 1

    def divide_root(self, s0: int, s1: int) -> "BinaryForm | None":
        """Exact quotient by (s1*s0_var - s0*s1_var), or None if not a root."""
        p = self.p
        n = self.degree
        if s0 % p != 0:
            # Work in the chart u = s1/s0; divide by (u - tau), tau = s1/s0.
            tau = s1 * pow(s0, p - 2, p) % p
            out = [0] * n
            carry = 0
            for k in range(n, 0, -1):
                carry = (self.coeffs[k] + carry * tau) % p
                out[k - 1] = carry
            rem = (self.coeffs[0] + carry * tau) % p
            if rem != 0:
                return None
            return BinaryForm(p, out)
        # Root (0,1): the form must be divisible by s0.
        if self.coeffs[-1] % p != 0:
            return None
        return BinaryForm(p, self.coeffs[:-1])

    def stripped_value(self, s0: int, s1: int) -> tuple[int, int]:
        """(order m, value of f / ell^m at (s0, s1)) for ell vanishing there.

        The value carries a nonzero scalar that depends only on m and the
        point, so forms stripped simultaneously to the same order stay
        projectively consistent — which is all the chart solving needs.
        """
        if self.is_zero():
            return self.degree + 1, 0
        f = self
        m = 0
        while True:
            v = f(s0, s1)
            if v != 0 or f.degree == 0:
                return m, v
            q = f.divide_root(s0, s1)
            if q is None:
                return m, v
            f = q
            m += 1

    def strip_power_of_s0(self) -> tuple[int, "BinaryForm"]:
        """(k, f / s0^k) with k maximal; the zero form is returned unchanged."""
        if self.is_zero():
            return 0, self
        return self._divide_out(0, 1)

    def rational_roots(self) -> list[tuple[ProjectivePoint1, int]]:
        """Roots in P^1(F_p) with multiplicities."""
        field = PrimeField(self.p)
        out = []
        for (s0, s1) in [(0, 1)] + [(1, t) for t in range(self.p)]:
            m = self.order_at(s0, s1)
            if m and not self.is_zero():
                out.append((point1(field, s0, s1), m))
        return out

    def __repr__(self):
        return f"BinaryForm({self.coeffs})"


def _sw_to_form(poly: SparsePoly, t1: int, p: int, degree: int) -> BinaryForm:
    """Specialize a poly in (s0, s1, w) at w = t1 and read off the s-form."""
    coeffs = [0] * (degree + 1)
    names = poly.vars
    i0, i1, iw = names.index("s0"), names.index("s1"), names.index("w")
    for exps, c in poly.terms.items():
        e0, e1, ew = exps[i0], exps[i1], exps[iw]
        if e0 + e1 != degree:
            raise InexactQuotient(
                f"expected s-degree {degree}, found monomial of s-degree {e0 + e1}")
        coeffs[e1] = (coeffs[e1] + int(c) * pow(t1, ew, p)) % p
    return BinaryForm(p, coeffs)


# -- charts ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the exceptional fiber: moving coordinates plus its line."""

    side: str
    center: ProjectivePoint2
    s: ProjectivePoint1
    moving: ProjectivePoint2

    def key(self):
        return (self.side, self.center.raw, self.s.raw, self.moving.raw)


class BlowupChart:
    """The divided G/H/L/Q system of one degenerate base point.

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
        s = self.surface
        p = self.p
        dom = s.domain
        center = [int(c) for c in self.center.raw]
        d = next(i for i, c in enumerate(center) if c)
        assert center[d] == 1, "center must be canonical"
        self.dehom_index = d

        s0, s1, w = SparsePoly.gens(dom, SWVARS)
        if d == 0:
            c, e = center[1], center[2]
            images3 = [s0, s0 * w, s1 * (w - c) + s0 * e]
        elif d == 1:
            c, e = center[0], center[2]
            images3 = [s0 * w, s0, s1 * (w - c) + s0 * e]
        else:
            c, e = center[1], center[0]
            images3 = [s1 * (w - c) + s0 * e, s0 * w, s0]
        self.t1 = c % p

        base_vars = XVARS if self.side == "x" else YVARS
        moving_vars = YVARS if self.side == "x" else XVARS
        self.moving_vars = moving_vars
        mv_ring = tuple(moving_vars) + SWVARS
        self.mv_ring = mv_ring

        sub3 = {name: images3[i] for i, name in enumerate(base_vars)}
        sys = gh_system(s, self.side)
        subbed = {}
        for k in range(3):
            subbed[("G", k)] = sys.g[k].substitute(sub3)
        for ij, hpoly in sys.h.items():
            subbed[("H", ij)] = hpoly.substitute(sub3)

        orders = []
        for poly in subbed.values():
            if poly.is_zero():
                continue
            orders.append(poly.vanishing_order("w", self.t1))
        if not orders:
            raise NotDegenerate(f"G/H system vanishes identically at {self.center}")
        self.e = min(orders)
        if self.e == 0:
            raise NotDegenerate(
                f"{self.center} is not a degenerate {self.side}-side base point")

        self.gp = {}
        self.hp = {}
        for key, poly in subbed.items():
            divided = poly.divide_linear_power("w", self.t1, self.e)
            if key[0] == "G":
                self.gp[key[1]] = divided
            else:
                self.hp[key[1]] = divided

        # L and Q substituted in the base-plane variables, moving variables kept.
        mv_gens = {name: SparsePoly.variable(dom, mv_ring, name) for name in mv_ring}
        sub6 = {name: mv_gens[name] for name in moving_vars}
        for i, name in enumerate(base_vars):
            sub6[name] = images3[i].rename(dom, mv_ring, {v: v for v in SWVARS})
        lp = s.l_poly().substitute(sub6)
        qp = s.q_poly().substitute(sub6)
        self.e_l = lp.vanishing_order("w", self.t1)
        self.e_q = qp.vanishing_order("w", self.t1)
        self.lp = lp.divide_linear_power("w", self.t1, self.e_l)
        self.qp = qp.divide_linear_power("w", self.t1, self.e_q)

        # Specializations at the exceptional fiber w = t1, as binary s-forms.
        self.g_forms = {k: _sw_to_form(v, self.t1, p, 4) for k, v in self.gp.items()}
        self.h_forms = {ij: _sw_to_form(v, self.t1, p, 4) for ij, v in self.hp.items()}
        if all(f.is_zero() for f in self.g_forms.values()) and all(
            f.is_zero() for f in self.h_forms.values()
        ):
            raise NotDegenerate(
                f"divided G/H system still vanishes on the exceptional fiber "
                f"over {self.center}")
        self.l_forms = [
            _sw_to_form(_extract(self.lp, name), self.t1, p, 1)
            for name in moving_vars
        ]
        self.q_forms = {
            (k, l): _sw_to_form(_extract_pair(self.qp, moving_vars, k, l), self.t1, p, 2)
            for (k, l) in PAIRS
        }
        self._build_table()

    def _build_table(self):
        """`lines[s]`: the fiber points on line s; `params[raw]`: the lines of a point.

        The fiber points are the surface points over the center, in
        `surface_pairs` (lex) order.  Per parameter the stripped pair, L' and
        Q' conditions become rows of coefficients over the moving monomials,
        zero where a condition is None (skipped, as in `matches`), and every
        point is tested at once: entries < p and 6 terms keep sums < 6p^3.
        """
        p = self.p
        rows = surface_pairs(self.surface)
        if self.side == "y":
            rows = rows[:, [3, 4, 5, 0, 1, 2]]
        fiber = rows[(rows[:, :3] == self.center.raw).all(axis=1), 3:]
        cands = self.s_candidates()
        quad = np.zeros((4, len(cands), len(PAIRS)), dtype=np.int64)
        line = np.zeros((len(cands), 3), dtype=np.int64)
        for j, s in enumerate(cands):
            for n, (k, l, _m) in enumerate(SWAP_PAIRS):
                triple = self.pair_triple((k, l), s)
                if triple is not None:
                    for kl, c in zip(((l, l), (k, l), (k, k)), triple):
                        quad[n, j, PAIR_INDEX[kl]] = c
            lc = self.line_at(s)
            if lc is not None:
                line[j] = lc
            qc = self.quad_at(s)
            if qc is not None:
                quad[3, j] = [qc[kl] for kl in PAIRS]
        mon = np.stack([fiber[:, k] * fiber[:, l] for (k, l) in PAIRS], axis=1)
        hit = (fiber @ line.T) % p == 0
        for cond in quad:
            hit &= (mon @ cond.T) % p == 0
        field = self.surface.domain
        pts = [point2(field, *row) for row in fiber.tolist()]
        self.lines = {s: [pts[i] for i in np.flatnonzero(hit[:, j])]
                      for j, s in enumerate(cands)}
        self.params = {pt.raw: [cands[j] for j in np.flatnonzero(hit[i])]
                       for i, pt in enumerate(pts)}

    # -- per-parameter data ---------------------------------------------------

    def pair_triple(self, pair: tuple[int, int], s: tuple[int, int]):
        """Stripped (A, B, C) of the pair quadratic at parameter s, or None.

        The common vanishing order of the three forms at s is divided out
        first; None means the triple is identically zero even then.
        """
        k, l = pair
        forms = (self.g_forms[k], self.h_forms[(min(k, l), max(k, l))], self.g_forms[l])
        orders_values = [f.stripped_value(*s) for f in forms]
        m = min(o for o, _ in orders_values)
        vals = []
        for f, (o, v) in zip(forms, orders_values):
            if o == m:
                vals.append(v)
            else:
                vals.append(0)
        if all(v == 0 for v in vals):
            return None
        return tuple(vals)

    def line_at(self, s: tuple[int, int]):
        """Stripped coefficients of the divided L on the line s, or None."""
        ov = [f.stripped_value(*s) for f in self.l_forms]
        m = min(o for o, _ in ov)
        vals = [v if o == m else 0 for (o, v) in ov]
        if all(v == 0 for v in vals):
            return None
        return tuple(vals)

    def quad_at(self, s: tuple[int, int]):
        """Stripped coefficients of the divided Q on the line s, or None."""
        ov = {key: f.stripped_value(*s) for key, f in self.q_forms.items()}
        m = min(o for o, _ in ov.values())
        vals = {key: (v if o == m else 0) for key, (o, v) in ov.items()}
        if all(v == 0 for v in vals.values()):
            return None
        return vals

    def matches(self, moving, s: tuple[int, int]) -> bool:
        """The membership predicate: all pair quadratics plus L' and Q'.

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
        lc = self.line_at(s)
        if lc is not None and (lc[0] * mv[0] + lc[1] * mv[1] + lc[2] * mv[2]) % p:
            return False
        qc = self.quad_at(s)
        if qc is not None:
            acc = 0
            for (k, l), c in qc.items():
                acc += c * mv[k] * mv[l]
            if acc % p:
                return False
        return True

    def s_candidates(self):
        return [(0, 1)] + [(1, t) for t in range(self.p)]

    # -- table queries ------------------------------------------------------------

    def points_at(self, s: tuple[int, int]) -> list:
        """The distinct rational boundary points on the line s (at most two).

        These are the fiber points the membership table puts on s, in lex
        order; more than two raise AmbiguousS.
        """
        out = self.lines[s]
        if len(out) > 2:
            raise AmbiguousS(
                f"{len(out)} boundary points on line {s} over {self.center}")
        return out

    def roots_at(self, s: tuple[int, int]):
        """points_at with multiplicities: a lone point counts doubly (ramified)."""
        pts = self.points_at(s)
        if len(pts) == 1:
            return [(pts[0], 2)]
        return [(pt, 1) for pt in pts]

    def _pair_coords(self, moving_pt):
        if self.side == "x":
            return self.center.coords, moving_pt.coords
        return moving_pt.coords, self.center.coords

    def __repr__(self):
        return (f"BlowupChart(side={self.side!r}, center={self.center}, "
                f"e={self.e}, t1={self.t1})")

    def debug_dump(self) -> str:
        """Sorted term lists of the divided system, for golden tests."""
        lines = [repr(self)]
        for k in range(3):
            lines.append(f"G'{k} = {self.gp[k]}")
        for ij in sorted(self.hp):
            lines.append(f"H'{ij} = {self.hp[ij]}")
        lines.append(f"L' = {self.lp}")
        lines.append(f"Q' = {self.qp}")
        return "\n".join(lines)


def _extract(poly: SparsePoly, name: str) -> SparsePoly:
    """Coefficient of a degree-1 moving variable, retaining only (s0,s1,w)."""
    coef = poly.coefficient_of(name, 1)
    keep = {}
    for exps, c in coef.terms.items():
        sw = exps[-3:]
        if any(exps[:-3]):
            raise InexactQuotient("unexpected moving-variable mixing in L'")
        keep[sw] = c
    return SparsePoly(poly.domain, SWVARS, keep)


def _extract_pair(poly: SparsePoly, moving_vars, k: int, l: int) -> SparsePoly:
    """Coefficient of the moving monomial m_k m_l in a (2,*)-form."""
    if k == l:
        coef = poly.coefficient_of(moving_vars[k], 2)
    else:
        coef = poly.coefficient_of(moving_vars[k], 1).coefficient_of(moving_vars[l], 1)
    keep = {}
    for exps, c in coef.terms.items():
        sw = exps[-3:]
        if any(exps[:-3]):
            continue
        keep[sw] = c
    return SparsePoly(poly.domain, SWVARS, keep)


def build_chart(surface: WehlerSurface, side: str, center) -> BlowupChart:
    """Chart at a degenerate base point; NotDegenerate otherwise."""
    if not surface.is_finite():
        raise ValueError("blow-up charts need a finite field surface")
    if not isinstance(center, ProjectivePoint2):
        center = point2(surface.domain, *center)
    kind, _ = _fiber_restriction(surface, side, center.coords)
    if kind == "finite":
        raise NotDegenerate(f"fiber over {center} is zero-dimensional")
    return BlowupChart(surface, side, center)


def chart_for(surface: WehlerSurface, side: str, center: ProjectivePoint2) -> BlowupChart:
    return surface.cached(("chart", side, center.raw), lambda: build_chart(surface, side, center))


def resolve_s(chart: BlowupChart, moving) -> ProjectivePoint1:
    """The unique line parameter whose chart system vanishes at the point.

    Reads the point's lines from the chart's membership table: NotOnSurface
    off the fiber, NoRationalS / AmbiguousS for no line / several lines.
    """
    if not isinstance(moving, ProjectivePoint2):
        moving = point2(chart.surface.domain, *moving)
    mv = moving.raw
    hits = chart.params.get(mv)
    if hits is None:
        raise NotOnSurface(f"({mv}) is not on the fiber over {chart.center}")
    if not hits:
        raise NoRationalS(f"no rational line parameter for {mv} over {chart.center}")
    if len(hits) > 1:
        raise AmbiguousS(f"{len(hits)} line parameters match {mv} over {chart.center}")
    return point1(chart.surface.domain, *hits[0])


def exceptional_points(chart: BlowupChart) -> list[BoundaryPoint]:
    """All boundary points of the chart: per parameter, the rational roots."""
    out = []
    field = chart.surface.domain
    for s in chart.s_candidates():
        for (pt, _mult) in chart.roots_at(s):
            out.append(BoundaryPoint(chart.side, chart.center,
                                     point1(field, *s), pt))
    out.sort(key=lambda bp: (bp.s.raw, bp.moving.raw))
    return out


def sigma_extended(chart: BlowupChart, P: BoundaryPoint) -> BoundaryPoint:
    """Swap the two boundary points on P's line; ramified lines fix P.

    The pair on each line is the full verified root set of the chart system,
    so the swap is total and involutive by construction.
    """
    pts = chart.points_at(P.s.raw)
    if P.moving not in pts:
        raise NotOnSurface(
            f"{P.moving} is not a chart root at s={P.s} over {chart.center}")
    others = [q for q in pts if q != P.moving]
    if others:
        return BoundaryPoint(P.side, P.center, P.s, others[0])
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

    The quotient is computed exactly in the (s0, s1, w) ring, any full power
    of (w - t1) is removed before specializing, and finally the common s0
    power is stripped.  Pair-independence is verified by cross-multiplying
    the alternative numerators.
    """
    def build():
        p = chart.p
        lk = {m: _extract(chart.lp, chart.moving_vars[m]) for m in range(3)}
        nums = {}
        for (i, j, m) in SWAP_PAIRS:
            h = chart.hp[(i, j)]
            nums[m] = h * h - 4 * chart.gp[i] * chart.gp[j]
        quotient = None
        used_pair = None
        for (i, j, m) in SWAP_PAIRS:
            if lk[m].is_zero():
                continue
            den = lk[m] * lk[m]
            try:
                quotient = nums[m].divide_exact(den)
            except Exception as exc:
                raise InexactQuotient(
                    f"(L'_{m})^2 does not divide the chart discriminant") from exc
            used_pair = (i, j)
            break
        if quotient is None:
            raise InexactQuotient("all L' coefficients vanish on the chart")
        # Cross-check pair independence: num_m * den_m' == num_m' * den_m.
        ms = [m for (_, _, m) in SWAP_PAIRS]
        for m1 in ms:
            for m2 in ms:
                if m1 >= m2:
                    continue
                if nums[m1] * (lk[m2] * lk[m2]) != nums[m2] * (lk[m1] * lk[m1]):
                    raise InexactQuotient(
                        "chart discriminant is not independent of the index pair")
        if not quotient.is_zero():
            ordw = quotient.vanishing_order("w", chart.t1)
            if ordw:
                quotient = quotient.divide_linear_power("w", chart.t1, ordw)
        raw = _sw_to_form(quotient, chart.t1, p, 6)
        stripped_k, form = raw.strip_power_of_s0()
        return RamificationPrime(chart, form, stripped_k, used_pair)
    return chart.surface.cached(("ram_prime", chart.side, chart.center.raw), build)
