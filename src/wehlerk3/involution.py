"""The fiberwise involutions on non-degenerate fibers.

sigma("y", .) keeps the second coordinate b and swaps the two points of the
fiber over b; sigma("x", .) keeps a and swaps the fiber of the first
projection.  The partner point is recovered from one binary quadratic by
Vieta plus the linearity of L on the fiber line.  Like the points and the
surface's coefficient rows it reads, the swap works on plain residues: ints
reduced mod p, or Fractions over QQ.  A brute-force fiber solver provides
an independent oracle for every swap.
"""

from __future__ import annotations

from ._engine import SWAP_PAIRS, g_form, h_form, pair_getter, side_index
from .errors import DegenerateFiber, NotOnSurface
from .geometry import ProjectivePoint2, point2
from .surface import (
    WehlerSurface,
    _fiber_residues,
    _fiber_restriction,
    quad_at,
)


def _as_pair(s: WehlerSurface, P):
    a, b = P
    if not isinstance(a, ProjectivePoint2):
        a = point2(s.domain, *a)
    if not isinstance(b, ProjectivePoint2):
        b = point2(s.domain, *b)
    return a, b


def _other_root(A, B, C, alpha, beta):
    """Second root of A x_l^2 + B x_k x_l + C x_k^2 given root (alpha, beta)."""
    if alpha != 0:
        return A * alpha, -(B * alpha + A * beta)
    return B, -C


def _cor1_partner(s: WehlerSurface, side: str, base, moving):
    """The fiber swap over a non-degenerate base, on plain residues.

    base and moving are coordinate tuples, usually a point's residues; any
    ints, Fractions or domain elements are reduced first.  The partner
    comes back as an unnormalized tuple of ints reduced mod p (over QQ, of
    Fractions), for `point2` to scale into canonical form.  Raises
    DegenerateFiber when every G/H vanishes at the base, before
    NotOnSurface when moving is not on the fiber.

    Every on-fiber moving gets its partner from the first (k, l, m) of
    SWAP_PAIRS with l_m != 0, where l = L(base, .), and only that triple's
    A, B, C = G_k, H_kl, G_l are formed.  No such m means l = 0, which makes
    every G and H vanish (they have degree 2 in l).  Otherwise G_k, G_l and
    H_kl are Q and its polar form at e_k x l and e_l x l, which span the
    line l.x = 0 (`_engine.degenerate_rows`), so A = B = C = 0
    exactly when Q vanishes on the whole line: every G and H vanishes.  On
    that line x_k = x_l = 0 forces x_m = 0, so moving's (x_k, x_l) is
    nonzero; a later triple is tried only for a moving off the line.
    """
    lc, qv, red = _fiber_residues(s, side, base)
    q = pair_getter(qv)

    def quadratic(k, l, m):
        return red(g_form(lc, q, k)), red(h_form(lc, q, k, l, m)), red(g_form(lc, q, l))

    usable = [klm for klm in SWAP_PAIRS if lc[klm[2]] != 0]
    first = quadratic(*usable[0]) if usable else (0, 0, 0)
    if not any(first):
        raise DegenerateFiber(f"degenerate {side}-fiber over {base}")
    mv = list(map(s.domain.residue, moving))
    for n, (k, l, m) in enumerate(usable):
        alpha, beta = mv[k], mv[l]
        if alpha == 0 and beta == 0:
            continue
        A, B, C = quadratic(k, l, m) if n else first
        if red(A * beta * beta + B * alpha * beta + C * alpha * alpha) != 0:
            raise NotOnSurface(
                f"{moving} is not a root of the fiber quadratic over {base}")
        gamma, delta = _other_root(A, B, C, alpha, beta)
        out = [0, 0, 0]
        out[k], out[l] = gamma, delta
        out[m] = -(lc[k] * gamma + lc[l] * delta) * s.domain.inv(lc[m])
        return tuple(map(red, out))
    raise NotOnSurface(f"{moving} is not on the fiber line over {base}")


def sigma(s: WehlerSurface, side: str, P):
    """The involution of the chosen side applied to a surface point (a, b).

    side "y" returns (a', b); side "x" returns (a, b').  Ramification points
    come back unchanged.  DegenerateFiber signals that the base point needs
    the blow-up extension.
    """
    a, b = _as_pair(s, P)
    if not s.contains(a.coords, b.coords):
        raise NotOnSurface(f"({a}, {b}) does not satisfy L = Q = 0")
    own = side_index(side)
    pts = [a, b]
    pts[1 - own] = point2(s.domain, *_cor1_partner(s, side, pts[own].coords, pts[1 - own].coords))
    return tuple(pts)


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
    own = side_index(side)
    pts = [a, b]
    base, mv = pts[own], pts[1 - own]
    roots = fiber_points(s, side, base.coords)
    if len(roots) > 2:
        raise DegenerateFiber(f"fiber over {base.coords} has {len(roots)} rational points")
    others = [r for r in roots if r != mv]
    if mv not in roots:
        raise NotOnSurface(f"{mv} not found on its fiber")
    pts[1 - own] = others[0] if others else mv
    return tuple(pts)


def fiber_points(s: WehlerSurface, side: str, base):
    """All rational points of the fiber over `base`, by direct solve."""
    if not s.is_finite():
        raise ValueError("fiber enumeration needs a finite field")
    _, qv, red = _fiber_residues(s, side, base)
    _, basis = _fiber_restriction(s, side, base)
    if basis is None:
        # L vanishes identically: the fiber is the conic Q = 0 (or the plane).
        candidates = _plane_iter(s.p)
    else:
        u, v = basis
        candidates = [tuple(x + t * y for x, y in zip(u, v)) for t in range(s.p)] + [v]
    return [point2(s.domain, *w) for w in candidates if red(quad_at(qv, w, 0)) == 0]


def _plane_iter(p: int):
    yield (0, 0, 1)
    for z in range(p):
        yield (0, 1, z)
    for y in range(p):
        for z in range(p):
            yield (1, y, z)


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
