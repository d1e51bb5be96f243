"""The fiberwise involutions on non-degenerate fibers.

sigma("y", .) keeps the second coordinate b and swaps the two points of the
fiber over b; sigma("x", .) keeps a and swaps the fiber of the first
projection.  The partner point is recovered from one binary quadratic by
Vieta plus the linearity of L on the fiber line; a brute-force fiber solver
provides an independent oracle for every swap.
"""

from __future__ import annotations

import logging

from ._engine import SWAP_PAIRS
from .errors import DegenerateFiber, NotOnSurface
from .field import QQ
from .geometry import ProjectivePoint2, point2
from .surface import WehlerSurface, _fiber_restriction, gh_values, gh_vanishes, quad_at

log = logging.getLogger(__name__)


def _as_pair(s: WehlerSurface, P):
    a, b = P
    if not isinstance(a, ProjectivePoint2):
        a = point2(s.domain, *a)
    if not isinstance(b, ProjectivePoint2):
        b = point2(s.domain, *b)
    return a, b


def _other_root(domain, A, B, C, alpha, beta):
    """Second root of A x_l^2 + B x_k x_l + C x_k^2 given root (alpha, beta)."""
    if alpha != domain.zero:
        return A * alpha, -(B * alpha + A * beta)
    return B, -C


def _cor1_partner(s: WehlerSurface, side: str, base, moving):
    """Raw-coordinate fiber swap over a non-degenerate base.

    base and moving are coordinate tuples; returns the partner tuple
    (unnormalized).  Raises DegenerateFiber when every G/H vanishes at the
    base and falls back to the oracle if no index pair is usable.
    """
    zero = s.domain.zero
    g, h = gh_values(s, side, base)
    if gh_vanishes(g, h):
        raise DegenerateFiber(f"degenerate {side}-fiber over {base}")
    lc = s.line_values(side, base)
    for (k, l, m) in SWAP_PAIRS:
        if lc[m] == zero:
            continue
        A, B, C = g[k], h[(k, l)], g[l]
        alpha, beta = moving[k], moving[l]
        if alpha == zero and beta == zero:
            continue
        if (A, B, C) == (zero, zero, zero):
            continue
        if A * beta * beta + B * alpha * beta + C * alpha * alpha != zero:
            raise NotOnSurface(
                f"{moving} is not a root of the fiber quadratic over {base}")
        gamma, delta = _other_root(s.domain, A, B, C, alpha, beta)
        out = [zero, zero, zero]
        out[k], out[l] = gamma, delta
        out[m] = -(lc[k] * gamma + lc[l] * delta) * (
            lc[m].inv() if s.domain is not QQ else 1 / lc[m])
        return tuple(out)
    log.debug("no usable Vieta pair over %s; falling back to fiber oracle", base)
    pair = (base, moving) if side == "x" else (moving, base)
    partner = fiber_partner_oracle(s, side, pair)
    return (partner[1] if side == "x" else partner[0]).raw


def sigma(s: WehlerSurface, side: str, P):
    """The involution of the chosen side applied to a surface point (a, b).

    side "y" returns (a', b); side "x" returns (a, b').  Ramification points
    come back unchanged.  DegenerateFiber signals that the base point needs
    the blow-up extension.
    """
    a, b = _as_pair(s, P)
    if not s.contains(a.coords, b.coords):
        raise NotOnSurface(f"({a}, {b}) does not satisfy L = Q = 0")
    if side == "y":
        partner = _cor1_partner(s, "y", b.coords, a.coords)
        return point2(s.domain, *partner), b
    if side == "x":
        partner = _cor1_partner(s, "x", a.coords, b.coords)
        return a, point2(s.domain, *partner)
    raise ValueError(f"side must be 'x' or 'y', got {side!r}")


def fiber_partner_oracle(s: WehlerSurface, side: str, P):
    """Independent swap: solve L = Q = 0 along the fiber line directly.

    Enumerates the whole fiber over the base by scanning the p+1 points of
    the line cut out by L, using nothing but the defining forms.  Must agree
    with `sigma` everywhere; raises DegenerateFiber when the fiber is not a
    plain 2-point (or doubled) fiber.
    """
    if not s.is_finite():
        raise ValueError("the fiber oracle needs a finite field")
    a, b = _as_pair(s, P)
    if not s.contains(a.coords, b.coords):
        raise NotOnSurface(f"({a}, {b}) does not satisfy L = Q = 0")
    base = b.coords if side == "y" else a.coords
    moving = a.coords if side == "y" else b.coords
    roots = fiber_points(s, side, base)
    if len(roots) > 2:
        raise DegenerateFiber(f"fiber over {base} has {len(roots)} rational points")
    mv = point2(s.domain, *moving)
    others = [r for r in roots if r != mv]
    if mv not in roots:
        raise NotOnSurface(f"{mv} not found on its fiber")
    partner = others[0] if others else mv
    return (partner, b) if side == "y" else (a, partner)


def fiber_points(s: WehlerSurface, side: str, base):
    """All rational points of the fiber over `base`, by direct solve."""
    if not s.is_finite():
        raise ValueError("fiber enumeration needs a finite field")
    dom = s.domain
    qv = s.quad_values(side, base)
    _, basis = _fiber_restriction(s, side, base)
    if basis is None:
        # L vanishes identically: the fiber is the conic Q = 0 (or the plane).
        candidates = _plane_iter(s)
    else:
        u, v = basis
        params = [(dom.one, dom.element(t)) for t in range(dom.p)] + [(dom.zero, dom.one)]
        candidates = (tuple(t0 * x + t1 * y for x, y in zip(u, v)) for (t0, t1) in params)
    return [point2(dom, *w) for w in candidates if quad_at(qv, w, dom.zero) == dom.zero]


def _plane_iter(s: WehlerSurface):
    p = s.domain.p
    elt = s.domain.element
    yield (elt(0), elt(0), elt(1))
    for z in range(p):
        yield (elt(0), elt(1), elt(z))
    for y in range(p):
        for z in range(p):
            yield (elt(1), elt(y), elt(z))


def phi(s: WehlerSurface, P):
    """phi = sigma_y o sigma_x, routing through blow-up charts as needed."""
    from .dynamics import lift_pair, phi_step
    return phi_step(s, lift_pair(s, *_as_pair(s, P))).pair


def psi(s: WehlerSurface, P):
    """psi = sigma_x o sigma_y, the inverse of phi."""
    from .dynamics import lift_pair, psi_step
    return psi_step(s, lift_pair(s, *_as_pair(s, P))).pair


def fixed_points(s: WehlerSurface, side: str):
    """All phase points fixed by sigma_side, boundary points included."""
    from .dynamics import build_phase_space
    space = build_phase_space(s)
    return space.fixed_points(side)
