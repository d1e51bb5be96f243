"""Vectorized F_p kernels for point enumeration, Jacobian scans and fiber swaps.

Pure numpy int64 arithmetic, always reduced mod p after each product, so all
results are exact.  The symbolic machinery lives in `poly`; this module only
handles the bulk numeric passes whose cost scales with p^2.
"""

from __future__ import annotations

import numpy as np

from .errors import BadModulus, DegenerateFiber
from .field import PrimeField

# x_i*x_j (or y_k*y_l) monomials in canonical order; cross terms carry the
# full coefficient, matching how WehlerSurface stores its (2,2) form.
PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
PAIR_INDEX = {pq: n for n, pq in enumerate(PAIRS)}

# Vieta recovery tries index pairs in this fixed order; entry n is (k, l, m)
# with m the third index.
SWAP_PAIRS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))

# Bulk kernels stay exact in int64 up to this cap: quad_eval's unreduced sums
# are < 6p^3 < 2^36,
# gh_eval's unreduced sums of residue products satisfy |G|, |H| < 3p^3 < 2^35,
# the degenerate_bases kernel's sums of n <= 5 residue products are < 5p^2 < 2^25,
# fiber_pairs' sort keys (row of x) * (p^2 + p + 1) + (row of y) are
# < (p^2 + p + 1)^2 < 2^45,
# fiber_partner_rows' row sums are at most a plane fiber's, the sum of all
# p^2 + p + 1 row indices, < (p^2 + p + 1)^2 < 2^45, so exact in the float64
# that np.bincount accumulates weights in (< 2^53),
# and phase_key values are < (p^2 + p + 1)^2 (p + 2) < 2^56.
_ENUM_P_CAP = 2048


def phase_key(ia: np.ndarray, ib: np.ndarray, code: np.ndarray, p: int) -> np.ndarray:
    """One int64 key per phase record from plane-table row indices and a code.

    Increasing in (ia, ib, code) for row indices < p^2 + p + 1 and codes in
    0..p + 1.  Dense indices keep it in int64 where two base-p coordinate codes
    (< p^6) would not.
    """
    return (ia * (p * p + p + 1) + ib) * (p + 2) + code


class PlaneTable:
    """Canonical P^2(F_p) points plus lookup tables, cached per prime."""

    _cache: dict[int, "PlaneTable"] = {}

    def __new__(cls, p: int):
        if p in cls._cache:
            return cls._cache[p]
        if p > _ENUM_P_CAP:
            raise BadModulus(f"plane enumeration capped at p <= {_ENUM_P_CAP}, got {p}")
        self = super().__new__(cls)
        self.p = p
        field = PrimeField(p)
        pts = [(0, 0, 1)]
        pts.extend((0, 1, z) for z in range(p))
        pts.extend((1, y, z) for y in range(p) for z in range(p))
        # Lexicographic order: index_of's closed form and phase_key's order
        # rely on it.
        self.pts = np.array(pts, dtype=np.int64)
        self.inv = np.array(field.inv_table(), dtype=np.int64)
        self.sqrt = np.array(field.sqrt_table(), dtype=np.int64)
        self.mon6 = self._monomials(self.pts)
        # Interpolation grid for quartics on the affine rows (1, y, z): the
        # table rows with y, z in 0..n-1, and the p x n Lagrange basis on the
        # nodes 0..n-1 (the identity when p <= 5).
        n = min(p, 5)
        nodes = np.arange(n)
        self.grid = (1 + p + p * nodes[:, None] + nodes).ravel()
        ys = np.arange(p, dtype=np.int64)
        self.lagrange = np.ones((p, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if j != i:
                    self.lagrange[:, i] = (self.lagrange[:, i] * (ys - j) % p
                                           * self.inv[(i - j) % p] % p)
        cls._cache[p] = self
        return self

    def _monomials(self, pts: np.ndarray) -> np.ndarray:
        p = self.p
        cols = [pts[:, i] * pts[:, j] % p for (i, j) in PAIRS]
        return np.stack(cols, axis=1)

    def monomials(self, pts: np.ndarray) -> np.ndarray:
        return self._monomials(np.asarray(pts, dtype=np.int64))

    def index_of(self, pts: np.ndarray) -> np.ndarray:
        """Row indices of canonical points in the table.

        Closed form from the table's order: (0,0,1) is row 0, (0,1,x2) row
        1 + x2 and (1,x1,x2) row 1 + p + p*x1 + x2.  Any other row, an entry
        outside 0..p-1 or the zero row raises KeyError.
        """
        pts = np.asarray(pts, dtype=np.int64)
        p = self.p
        x0, x1, x2 = pts[..., 0], pts[..., 1], pts[..., 2]
        # Exactly the table rows: x2 in 0..p-1 and either x0 = 1 with x1 in
        # 0..p-1, or x0 = 0 with x1 = 1, or (x0, x1, x2) = (0, 0, 1).
        at_infinity = (x0 == 0) & ((x1 == 1) | ((x1 == 0) & (x2 == 1)))
        affine = (x0 == 1) & (x1 >= 0) & (x1 < p)
        if not np.all((x2 >= 0) & (x2 < p) & (affine | at_infinity)):
            raise KeyError("point not in canonical table")
        return np.where(x0 == 1, 1 + p + p * x1 + x2, np.where(x1 == 1, 1 + x2, 0))

    def interpolate(self, values: np.ndarray) -> np.ndarray:
        """A quartic's values on every affine row from its n x n grid values.

        values[i, j] is the form at (1, i, j); entry [y, z] of the result is
        the form at (1, y, z), i.e. affine table row 1 + p + p*y + z.  Exact
        because a quartic restricted to x0 = 1 has degree <= 4 in y and in z.
        """
        W = self.lagrange
        return (W @ values % self.p) @ W.T % self.p

    def canonicalize(self, pts: np.ndarray) -> np.ndarray:
        """Scale rows so the first nonzero coordinate is 1."""
        pts = np.asarray(pts, dtype=np.int64)
        nz = pts != 0
        lead_pos = np.argmax(nz, axis=1)
        lead = pts[np.arange(len(pts)), lead_pos]
        if np.any(lead == 0):
            raise ValueError("zero vector cannot be canonicalized")
        return pts * self.inv[lead][:, None] % self.p


def line_basis(lc: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent points spanning each line c.y = 0 (rows with c != 0)."""
    c0, c1, c2 = lc[:, 0], lc[:, 1], lc[:, 2]
    zero = np.zeros_like(c0)
    one = np.ones_like(c0)
    case2 = c2 != 0
    case1 = ~case2 & (c1 != 0)
    case0 = ~case2 & ~case1
    u = np.empty_like(lc)
    v = np.empty_like(lc)
    # c2 != 0: u=(c2,0,-c0), v=(0,c2,-c1)
    # c2 == 0, c1 != 0: u=(c1,-c0,0), v=(0,0,1)
    # only c0 != 0: line y0=0: u=(0,1,0), v=(0,0,1)
    u[:, 0] = np.select([case2, case1, case0], [c2, c1, zero])
    u[:, 1] = np.select([case2, case1, case0], [zero, (-c0) % p, one])
    u[:, 2] = np.select([case2, case1, case0], [(-c0) % p, zero, zero])
    v[:, 0] = zero
    v[:, 1] = np.select([case2, case1, case0], [c2, zero, zero])
    v[:, 2] = np.select([case2, case1, case0], [(-c1) % p, one, one])
    return u % p, v % p


def quad_eval(qc: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """Evaluate rows of 6-coefficient quadratics at rows of points w.

    Entries must be residues in 0..p-1; the sum is reduced once (< 6p^3).
    """
    return sum(qc[:, n] * w[:, i] * w[:, j] for n, (i, j) in enumerate(PAIRS)) % p


def gh_formula(L, q):
    """The fiber quadratics' coefficients: (G_0, G_1, G_2) and {(i, j): H_ij}.

    G_k = L_j^2 Q_ii - L_i L_j Q_ij + L_i^2 Q_jj with {i, j, k} = {0, 1, 2},
    H_ij = 2 L_i L_j Q_kk - L_i L_k Q_jk - L_j L_k Q_ik + L_k^2 Q_ij for
    (i, j, k) in SWAP_PAIRS.  L holds the 3 linear coefficients and q(i, j)
    returns the quadratic coefficient of x_i x_j in either index order.  Any
    ring works: SparsePoly, FieldElement, Fraction or int64 columns.  The H
    dict is keyed (0, 1), (0, 2), (1, 2), in SWAP_PAIRS order.
    """
    g = []
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        g.append(L[j] * L[j] * q(i, i) - L[i] * L[j] * q(i, j) + L[i] * L[i] * q(j, j))
    h = {
        (i, j): 2 * L[i] * L[j] * q(k, k) - L[i] * L[k] * q(j, k)
        - L[j] * L[k] * q(i, k) + L[k] * L[k] * q(i, j)
        for (i, j, k) in SWAP_PAIRS
    }
    return tuple(g), h


def pair_getter(coeffs):
    """q(i, j) reading 6 coefficients stored in PAIRS order."""
    return lambda i, j: coeffs[PAIR_INDEX[(min(i, j), max(i, j))]]


def gh_eval(lc: np.ndarray, qc: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """G_k and H_kl values from evaluated L (n,3) and Q (n,6) coefficients.

    Columns of H follow SWAP_PAIRS order: H01, H02, H12.
    """
    L = [lc[:, n] % p for n in range(3)]
    cols = [qc[:, n] % p for n in range(6)]
    g, h = gh_formula(L, pair_getter(cols))
    return np.stack(g, axis=1) % p, np.stack(list(h.values()), axis=1) % p


def binary_other_root(A, B, C, alpha, beta, p: int):
    """Second root of A*t1^2 + B*t0*t1 + C*t0^2 given the root (alpha, beta).

    Everything vectorized mod p; returns (gamma, delta) with the convention
    that a double root reproduces (alpha, beta) projectively.
    """
    use = alpha % p != 0
    gamma = np.where(use, A * alpha, B) % p
    delta = np.where(use, -(B * alpha + A * beta), -C) % p
    return gamma, delta


def fiber_partner_rows(pair_base: np.ndarray, pair_moving: np.ndarray,
                       base: np.ndarray, moving: np.ndarray, n: int) -> np.ndarray:
    """Plane-table row of the Vieta partner of each fiber point, from row sums.

    pair_base / pair_moving hold the table rows of the base and the moving
    coordinate of every rational point of the surface; base / moving are the
    rows of the points to swap and n is the number of table rows.  Let S[r]
    be the sum of pair_moving over the pairs with pair_base = r, doubled
    where that fiber has one point.  Over a base that is not degenerate the
    fiber is the zero set of a binary quadratic on the line L(base, .) = 0,
    and by Vieta its second root is rational whenever one is.  So the
    rational fiber is either two points r, r', with S = r + r', or one double
    root r, with S = 2r; either way S[base] - r is the partner, and a double
    root maps to itself.  Any base whose fiber does not have 1 or 2 points
    raises DegenerateFiber.
    """
    size = np.bincount(pair_base, minlength=n)
    if not np.all((size[base] == 1) | (size[base] == 2)):
        raise DegenerateFiber("a swapped point's fiber has neither 1 nor 2 points")
    total = np.bincount(pair_base, weights=pair_moving, minlength=n)
    total[size == 1] *= 2
    return total[base].astype(np.int64) - moving


class SurfaceEngine:
    """Bulk operations for one Wehler surface over F_p."""

    def __init__(self, amat, bmat, p: int):
        self.p = p
        self.table = PlaneTable(p)
        self.amat = np.asarray(amat, dtype=np.int64) % p
        self.bmat = np.asarray(bmat, dtype=np.int64) % p

    # -- per-base coefficient collections ----------------------------------

    def line_coeffs(self, side: str, bases: np.ndarray) -> np.ndarray:
        """L restricted to the fiber over each base: 3 linear coefficients.

        side 'x': bases are a in P^2_x, coefficients of y_j in L(a, .).
        side 'y': bases are b in P^2_y, coefficients of x_i in L(., b).
        """
        if side == "x":
            return bases @ self.amat % self.p
        return bases @ self.amat.T % self.p

    def quad_coeffs(self, side: str, mon: np.ndarray) -> np.ndarray:
        """Q restricted to the fiber: 6 quadratic coefficients per base."""
        if side == "x":
            return mon @ self.bmat % self.p
        return mon @ self.bmat.T % self.p

    # -- full fiber analysis over one side ----------------------------------

    def degenerate_bases(self, side: str) -> list:
        """(base_row, kind) for every base of the side with a degenerate fiber.

        A base is degenerate exactly where every G_k and H_ij vanishes.  Write
        l for the 3 coefficients of L(base, .), n_k = e_k x l and B for the
        polar form of Q; then G_k = Q(n_k) and H_ij = -B(n_i, n_j).  When
        l != 0 the n_k span the fiber line L(base, .) = 0, so all of G and H
        vanish exactly when Q vanishes on that whole line.  When l = 0 all of
        them vanish, being of degree 2 in l.

        G and H are quartics in the base, so `gh_eval` at the p + 1 rows of
        the line at infinity and at the table's interpolation grid gives them
        everywhere.  One interpolated form yields the candidates; each other
        form narrows them at the candidates alone.  kind is "line" where
        L(base, .) != 0, else "conic" or "plane" (Q(base, .) vanishes too);
        the "line" bases come first, each group in table order.
        """
        p = self.p
        tbl = self.table
        rows = np.concatenate([np.arange(p + 1), tbl.grid])
        G, H = gh_eval(self.line_coeffs(side, tbl.pts[rows]),
                       self.quad_coeffs(side, tbl.mon6[rows]), p)
        forms = np.concatenate([G, H], axis=1)
        at_infinity = np.nonzero(~forms[:p + 1].any(axis=1))[0]
        W = tbl.lagrange
        n = W.shape[1]
        grid = forms[p + 1:].T.reshape(6, n, n)
        ys, zs = np.nonzero(tbl.interpolate(grid[0]) == 0)
        for values in grid[1:]:
            keep = (W[ys] @ values % p * W[zs]).sum(axis=1) % p == 0
            ys, zs = ys[keep], zs[keep]

        found = np.concatenate([at_infinity, 1 + p + p * ys + zs])
        bases = tbl.pts[found]
        line = self.line_coeffs(side, bases).any(axis=1)
        qc = self.quad_coeffs(side, tbl.mon6[found[~line]])
        degenerate = [(base, "line") for base in bases[line]]
        degenerate += [(base, "conic" if q.any() else "plane")
                       for base, q in zip(bases[~line], qc)]
        return degenerate

    def analyze(self, side: str):
        """`fiber_pairs` without the plane-table rows: (pairs, degenerate)."""
        pairs, _, degenerate = self.fiber_pairs(side)
        return pairs, degenerate

    def fiber_pairs(self, side: str):
        """Solve every fiber of the chosen projection.

        Restricts Q to the line L(base, .) = 0 over every base and solves the
        binary quadratic.  Returns (pairs, rows, degenerate) where pairs is an
        (N, 6) array of [base, fiber-point] coordinate rows in (x, y) order,
        lex sorted, rows is (x rows, y rows), the plane-table row indices of
        the two coordinates of each pair, and degenerate lists (base_row,
        kind) for positive-dimensional fibers with kind in {"line", "conic",
        "plane"}: the whole-line bases, then the bases where L vanishes
        identically.  `degenerate_bases` gives the same list without the
        roots.
        """
        p = self.p
        tbl = self.table
        bases = tbl.pts
        lc = self.line_coeffs(side, bases)
        qc = self.quad_coeffs(side, tbl.mon6)

        line_ok = np.any(lc != 0, axis=1)
        idx = np.nonzero(line_ok)[0]
        u, v = line_basis(lc[idx], p)
        qci = qc[idx]
        # Q(t0 u + t1 v) = A t0^2 + B t0 t1 + C t1^2 over bases[idx].
        A = quad_eval(qci, u, p)
        C = quad_eval(qci, v, p)
        B = (quad_eval(qci, (u + v) % p, p) - A - C) % p
        whole_line = (A == 0) & (B == 0) & (C == 0)
        # Special bases: L vanishes identically on the fiber plane.
        special = np.nonzero(~line_ok)[0]
        degenerate = [(bases[row], "line") for row in idx[whole_line]]
        degenerate += [(bases[row], "conic" if np.any(qc[row] != 0) else "plane")
                       for row in special]

        # Base rows and fiber points of every rational point; bases are the
        # table rows, so idx and special are already base rows.
        out_row: list[np.ndarray] = []
        out_fib: list[np.ndarray] = []

        # Whole-line fibers: every point t0 u + t1 v, t in P^1.
        ts = np.concatenate([np.stack([np.ones(p, dtype=np.int64), np.arange(p)], axis=1),
                             np.array([[0, 1]], dtype=np.int64)])
        for pos in np.nonzero(whole_line)[0]:
            upts = (ts[:, :1] * u[pos][None, :] + ts[:, 1:] * v[pos][None, :]) % p
            out_row.append(np.full(len(upts), idx[pos]))
            out_fib.append(tbl.canonicalize(upts))

        solvable = ~whole_line
        # Roots with t1 = 0 exist iff A == 0: fiber point = u.
        rootA = solvable & (A == 0)
        out_row.append(idx[rootA])
        out_fib.append(tbl.canonicalize(u[rootA]))
        # Second root for A == 0, B != 0: t0 = -C/B, t1 = 1.
        rootB = solvable & (A == 0) & (B != 0)
        t0 = (-C[rootB] * tbl.inv[B[rootB]]) % p
        pts = (t0[:, None] * u[rootB] + v[rootB]) % p
        out_row.append(idx[rootB])
        out_fib.append(tbl.canonicalize(pts))
        # A != 0: standard quadratic in t0 with t1 = 1.
        quad = solvable & (A != 0)
        disc = (B[quad] * B[quad] - 4 * A[quad] * C[quad]) % p
        root = tbl.sqrt[disc]
        has = root >= 0
        qrows = np.nonzero(quad)[0][has]
        r = root[has]
        inv2A = tbl.inv[(2 * A[qrows]) % p]
        for sign in (1, -1):
            t0 = ((-B[qrows] + sign * r) * inv2A) % p
            sel = np.ones(len(qrows), dtype=bool) if sign == 1 else r != 0
            pts = (t0[sel][:, None] * u[qrows[sel]] + v[qrows[sel]]) % p
            out_row.append(idx[qrows[sel]])
            out_fib.append(tbl.canonicalize(pts))

        # Conic and plane fibers: every plane point where Q vanishes (all of
        # them when Q does too).
        for row in special:
            sols = tbl.pts[tbl.mon6 @ qc[row] % p == 0]
            out_row.append(np.full(len(sols), row))
            out_fib.append(sols)

        base_rows = np.concatenate(out_row)
        fib_rows = tbl.index_of(np.concatenate(out_fib))
        x_rows, y_rows = (base_rows, fib_rows) if side == "x" else (fib_rows, base_rows)
        # Table rows are in lex order, so this one key sorts the pairs lex.
        order = np.argsort(x_rows * len(tbl.pts) + y_rows, kind="stable")
        x_rows, y_rows = x_rows[order], y_rows[order]
        pairs = np.concatenate([tbl.pts[x_rows], tbl.pts[y_rows]], axis=1)
        return pairs, (x_rows, y_rows), degenerate

    # -- rational-point Jacobian rank scan -----------------------------------

    def smooth_scan(self, pairs: np.ndarray) -> np.ndarray:
        """Mask of rows where the 2x6 Jacobian of (L, Q) has rank < 2."""
        p = self.p
        a = pairs[:, :3]
        b = pairs[:, 3:]
        amon = self.table.monomials(a)
        bmon = self.table.monomials(b)
        # dL/dx_i depends only on b, dL/dy_j only on a.
        jl = np.concatenate([b @ self.amat.T % p, a @ self.amat % p], axis=1)
        qxc = bmon @ self.bmat.T % p  # x-quadratic coefficients at b
        qyc = amon @ self.bmat % p    # y-quadratic coefficients at a
        jq = np.empty_like(jl)
        for i in range(3):
            acc = np.zeros(len(a), dtype=np.int64)
            for j in range(3):
                c = qxc[:, PAIR_INDEX[(min(i, j), max(i, j))]]
                mult = 2 if i == j else 1
                acc = (acc + mult * c * a[:, j]) % p
            jq[:, i] = acc
        for k in range(3):
            acc = np.zeros(len(a), dtype=np.int64)
            for l in range(3):
                c = qyc[:, PAIR_INDEX[(min(k, l), max(k, l))]]
                mult = 2 if k == l else 1
                acc = (acc + mult * c * b[:, l]) % p
            jq[:, 3 + k] = acc

        jl_nonzero = jl != 0
        has_pivot = np.any(jl_nonzero, axis=1)
        pivot = np.argmax(jl_nonzero, axis=1)
        rows = np.arange(len(a))
        scale = np.where(has_pivot, jq[rows, pivot], 0)
        factor = self.table.inv[np.where(has_pivot, jl[rows, pivot], 1)]
        resid = (jq - (scale * factor % p)[:, None] * jl) % p
        rank_lt_2 = ~has_pivot | np.all(resid == 0, axis=1)
        # If jl == 0 but jq != 0 the rank is 1, still singular for a surface.
        return rank_lt_2

    # -- Vieta fiber swap ------------------------------------------------------

    def cor1_swap(self, side: str, bases: np.ndarray, moving: np.ndarray) -> np.ndarray:
        """Partner of each moving point in the 2-point fiber over its base.

        side 'x': bases in P^2_x, moving points are the y coordinates.
        side 'y': bases in P^2_y, moving points are the x coordinates.
        Bases must be non-degenerate; double roots return the input point.
        The census takes its partners from `fiber_partner_rows`; this G/H
        Vieta kernel is the bulk reference that tests compare it with.
        """
        p = self.p
        tbl = self.table
        lc = self.line_coeffs(side, bases)
        qc = self.quad_coeffs(side, tbl.monomials(bases))
        G, H = gh_eval(lc, qc, p)

        usable = np.stack([lc[:, m] != 0 for (_, _, m) in SWAP_PAIRS], axis=1)
        if not np.all(np.any(usable, axis=1)):
            raise ValueError("degenerate base reached the vectorized swap")
        choice = np.argmax(usable, axis=1)
        k = np.array([kp for (kp, _, _) in SWAP_PAIRS])[choice]
        l = np.array([lp for (_, lp, _) in SWAP_PAIRS])[choice]
        m = np.array([mp for (_, _, mp) in SWAP_PAIRS])[choice]

        rows = np.arange(len(bases))
        A = G[rows, k]
        B = H[rows, choice]
        C = G[rows, l]
        alpha = moving[rows, k]
        beta = moving[rows, l]
        gamma, delta = binary_other_root(A, B, C, alpha, beta, p)
        lk = lc[rows, k]
        ll = lc[rows, l]
        lm = lc[rows, m]
        third = (-(lk * gamma + ll * delta) % p) * tbl.inv[lm] % p
        out = np.zeros_like(moving)
        out[rows, k] = gamma
        out[rows, l] = delta
        out[rows, m] = third
        return tbl.canonicalize(out)
