"""Extension of the involutions across degenerate fibers.

A degenerate base point is blown up into the pencil of lines through it.
Substituting the pencil parametrization into the G/H system and dividing by
the highest common power of (w - t1) (w the affine coordinate along each
line, t1 its value at the center) yields quadratics whose specialization at
the exceptional fiber cuts each line's two intersection points with the
degenerate fiber.  The involution then swaps the two roots line by line.

The parametrization degenerates at s = (0,1), where the specialized
coefficient triples can vanish identically; before any root solving the
common vanishing order of the triple at the target parameter is stripped,
which realizes the projective limit of the quadratic along the pencil.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._engine import SWAP_PAIRS
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
        self._points_cache: dict[tuple, list] = {}

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

        This is the variety form of the chart's defining system, used both
        to assign the unique line parameter to a fiber point and to verify
        enumerated boundary points.
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

    # -- root extraction --------------------------------------------------------

    def points_at(self, s: tuple[int, int]) -> list:
        """The distinct rational boundary points on the line s (at most two).

        Candidates are assembled from every usable pair quadratic, completed
        to full points along several routes, and kept only when they satisfy
        the whole chart system and lie on the surface.  A projection can
        collapse the two points of a line to one ratio, so no single pair is
        trusted on its own.
        """
        cache = self._points_cache
        if s in cache:
            return cache[s]
        field = self.surface.domain
        seen: dict[tuple, object] = {}
        any_pair = False
        for (k, l, m) in SWAP_PAIRS:
            triple = self.pair_triple((k, l), s)
            if triple is None:
                continue
            any_pair = True
            ratios = _binary_roots(*triple, field)
            for (rk, rl), _mult in ratios:
                for pt in self._completions((k, l, m), rk, rl, s):
                    seen.setdefault(pt.raw, pt)
        if not any_pair:
            # Every pair quadratic degenerates at this parameter: fall back
            # to filtering the directly enumerated fiber.
            for pt in _fiber_point_list(self.surface, self.side, self.center):
                if self.matches(pt.raw, s):
                    seen.setdefault(pt.raw, pt)
        out = sorted(seen.values(), key=lambda q: q.raw)
        if len(out) > 2:
            raise AmbiguousS(
                f"{len(out)} boundary points on line {s} over {self.center}")
        cache[s] = out
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

    def _completions(self, klm, rk, rl, s) -> list:
        """All full moving points with (k,l) ratio (rk, rl) on the line s.

        Tries the linear form L' first, then consistent combinations with the
        other pair quadratics, then a sweep of the remaining coordinate; every
        candidate must pass the membership predicate and lie on the surface.
        """
        k, l, m = klm
        p = self.p
        field = self.surface.domain
        found: dict[tuple, object] = {}

        def consider(coords):
            if not any(v % p for v in coords):
                return
            pt = point2(field, *coords)
            if pt.raw in found:
                return
            if self.matches(pt.raw, s) and self.surface.contains(*self._pair_coords(pt)):
                found[pt.raw] = pt

        lc = self.line_at(s)
        if lc is not None and lc[m] % p:
            third = -(lc[k] * rk + lc[l] * rl) * pow(lc[m], p - 2, p)
            out = [0, 0, 0]
            out[k], out[l], out[m] = rk % p, rl % p, third % p
            consider(out)
            if found:
                return list(found.values())
        for (k2, l2, m2) in SWAP_PAIRS:
            if (k2, l2) == (k, l):
                continue
            triple = self.pair_triple((k2, l2), s)
            if triple is None:
                continue
            shared = {k, l} & {k2, l2}
            if not shared:
                continue
            sh = shared.pop()
            other = k2 if l2 == sh else l2
            base_val = (rk if sh == k else rl) % p
            if base_val == 0:
                continue
            for (qk, ql), _mult in _binary_roots(*triple, field):
                cand = {k2: qk % p, l2: ql % p}
                if cand[sh] == 0:
                    continue
                scale = base_val * pow(cand[sh], p - 2, p) % p
                out = [0, 0, 0]
                out[k], out[l] = rk % p, rl % p
                out[other] = cand[other] * scale % p
                consider(out)
        if not found:
            # Sweep the free coordinate; rare, but total.
            for t in range(p):
                out = [0, 0, 0]
                out[k], out[l], out[m] = rk % p, rl % p, t
                consider(out)
        return list(found.values())

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


def _binary_roots(A: int, B: int, C: int, field):
    """Roots of A t_l^2 + B t_k t_l + C t_k^2 as ((t_k, t_l), mult) pairs.

    Returns None for the identically-zero quadratic, [] when the roots are
    irrational.
    """
    p = field.p
    A, B, C = A % p, B % p, C % p
    if A == 0 and B == 0 and C == 0:
        return None
    if A == 0 and B == 0:
        return [((0, 1), 2)]
    if A == 0:
        # roots: (t_k : t_l) = (0 : 1) and (B : -C)
        return [((0, 1), 1), ((B, -C % p), 1)]
    disc = (B * B - 4 * A * C) % p
    r = field.sqrt(disc)
    if r is None:
        return []
    if r == 0:
        inv2a = pow(2 * A % p, p - 2, p)
        return [((1, -B * inv2a % p), 2)]
    inv2a = pow(2 * A % p, p - 2, p)
    return [((1, (-B + r) * inv2a % p), 1), ((1, (-B - r) * inv2a % p), 1)]


_FIBER_CACHE_KEY = "fiber_points"


def _fiber_point_list(surface: WehlerSurface, side: str, center: ProjectivePoint2):
    """Rational points of the degenerate fiber, cached on the surface."""
    key = (_FIBER_CACHE_KEY, side, center.raw)
    if key not in surface._cache:
        from .involution import fiber_points
        surface._cache[key] = tuple(fiber_points(surface, side, center.coords))
    return surface._cache[key]


def build_chart(surface: WehlerSurface, side: str, center) -> BlowupChart:
    """Chart at a degenerate base point; NotDegenerate otherwise."""
    if not isinstance(center, ProjectivePoint2):
        center = point2(surface.domain, *center)
    kind, _ = _fiber_restriction(surface, side, center.coords)
    if kind == "finite":
        raise NotDegenerate(f"fiber over {center} is zero-dimensional")
    return BlowupChart(surface, side, center)


def chart_for(surface: WehlerSurface, side: str, center: ProjectivePoint2) -> BlowupChart:
    key = ("chart", side, center.raw)
    if key not in surface._cache:
        surface._cache[key] = build_chart(surface, side, center)
    return surface._cache[key]


def resolve_s(chart: BlowupChart, moving) -> ProjectivePoint1:
    """The unique line parameter whose chart system vanishes at the point.

    Scans all p+1 parameters and applies the full membership predicate;
    NoRationalS and AmbiguousS are surfaced rather than silently resolved.
    """
    if isinstance(moving, ProjectivePoint2):
        mv = moving.raw
    else:
        mv = tuple(int(c) for c in moving)
    if not chart.surface.contains(*chart._pair_coords(point2(chart.surface.domain, *mv))):
        raise NotOnSurface(f"({mv}) is not on the fiber over {chart.center}")
    hits = [s for s in chart.s_candidates() if chart.matches(mv, s)]
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
    key = ("ram_prime", chart.side, chart.center.raw)
    cache = chart.surface._cache
    if key in cache:
        return cache[key]
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
    result = RamificationPrime(chart, form, stripped_k, used_pair)
    cache[key] = result
    return result
