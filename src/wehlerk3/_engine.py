"""Vectorized F_p kernels for point enumeration, Jacobian scans and fiber swaps.

Pure numpy int64 arithmetic whose unreduced sums stay below the bounds stated
at `_ENUM_P_CAP`, so all results are exact.  The symbolic machinery lives in
`poly`; this module only handles the bulk numeric passes whose cost scales
with p^2.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import prod

import numpy as np

from .errors import BadModulus
from .field import PrimeField

# x_i*x_j (or y_k*y_l) monomials in canonical order; cross terms carry the
# full coefficient, matching how WehlerSurface stores its (2,2) form.
PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
PAIR_INDEX = {pq: n for n, pq in enumerate(PAIRS)}
# PAIR_AT[i][j] is the PAIRS position of x_i*x_j in either index order.
PAIR_AT = tuple(tuple(PAIR_INDEX[(min(i, j), max(i, j))] for j in range(3)) for i in range(3))

# Vieta recovery tries index pairs in this fixed order; entry n is (k, l, m)
# with m the third index.
SWAP_PAIRS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))

# The two sides, in the order of the factors of P^2 x P^2: side x's base is
# a point's first coordinate, side y's its second.
SIDES = ("x", "y")


def side_index(side: str) -> int:
    """Position of the side's base in a pair (a, b): 0 for "x", 1 for "y"."""
    if side not in SIDES:
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    return SIDES.index(side)


def side_rows(a, b, side: str):
    """(L rows, Q rows) of one side, from L's 3x3 matrix a and Q's 6x6 table b.

    L restricted to the fiber over a base has coefficient j = L row j dotted
    with the base, and Q coefficient K (PAIRS order) = Q row K dotted with
    the base's PAIRS monomials.  Side "y" reads a and b as stored, side "x"
    their transposes (an int64 array's transpose is a view; stacks of
    matrices, (n, 3, 3) and (n, 6, 6), are transposed matrix by matrix).
    Any ring's entries work; this is the one place the two sides'
    coefficients are told apart.
    """
    if side_index(side) == 0:
        if isinstance(a, np.ndarray):
            return a.swapaxes(-1, -2), b.swapaxes(-1, -2)
        return tuple(zip(*a)), tuple(zip(*b))
    return a, b


def stack_sides(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L rows, Q rows) of both sides of n draws, (2n, 3, 3) and (2n, 6, 6).

    a (n, 3, 3) and b (n, 6, 6) stack the draws' coefficients; the sides
    come draw by draw, side x first, as `degenerate_rows` takes them.
    """
    rows = zip(*(side_rows(a, b, side) for side in SIDES))
    return tuple(np.stack(r, axis=1).reshape(-1, *r[0].shape[1:]) for r in rows)


# Bulk kernels stay exact in int64 up to this cap.  The root pass's bounds are
# per base, so they hold whatever its block size, each block forming the Q
# monomials of its own rows:
# _fiber_roots' unreduced coefficients of L(base, .) and Q(base, .) are < 3p^2
# and < 6p^2, it forms e_i = -c_i / c2 as |c_i * inv(c2)| < 3p^3, its
# unreduced A, B, C from those q's and the residues e0, e1 are at most
# 6m^2 + 12m^3 + 12m^4 < 12p^4 < 2^48 (m = p - 1), its roots are formed as
# |(+-r - B) * inv(C) * (p + 1)/2| < p^3, and each root's row,
# off + step * t + (e0 + e1 * t) % p, is a table row < p^2 + p + 1 < 2^23,
# gh_eval forms each G_k from 3 products of three residues and each H_ij
# from 5 (its first term doubled), so the unreduced forms are bounded by
# |G_k| <= 3(p - 1)^3 and |H_ij| <= 5(p - 1)^3 < 2^36,
# the resultant scan of degenerate_rows takes L and Q at its nodes as the
# root pass does (< 3p^2, < 6p^2), forms z-coefficients as sums of 5
# residue products (< 5p^2), Bezout brackets a_u b_v - a_v b_u of residues
# (|.| < p^2, at most 2 to an entry, so < 2p^2), and the determinant of the
# reduced d x d Bezout matrix (d <= 4) as d! products of d residues,
# |det| < 24p^4 < 2^49; it extends the resultant and the z-coefficients to
# every line by the (p + 1) x 18 line basis, < 18p^2 < 2^31, and evaluates
# a quartic at any z from its coefficients and the powers z^k mod p, < 5p^2
# (zpow's unreduced z^4 < p^4 < 2^44),
# smooth_scan's unreduced Jacobian entries of dQ, sums of three residue
# products with one doubled, are <= 4(p - 1)^2 < 4p^2 <= 2^24,
# the pair keys (row of x) * (p^2 + p + 1) + (row of y) that fiber_pairs sorts
# side y by and that PhaseSpace merges both-side boundary points by are
# < (p^2 + p + 1)^2 < 2^45 (side x emits its pairs in order and sorts nothing),
# the dense group ids that PhaseSpace pairs a side's records by, a plain
# record's base row or (p^2 + p + 1) + (center position) * (p + 1) + (line
# code) for a chart record, are < p^2 + p + 1 + (#centers)(p + 1), and so
# < (p^2 + p + 1)(p + 2) < 2^35 even were every base a center,
# the index sums of a group of two records, which one weighted bincount
# adds in float64, are < 2N for N records, about 2p^2: < 2^24 at the cap
# (N = 4,160,321 for random_surface(2039, 0)), so they are exact in float64,
# whose integers are exact below 2^53,
# and phase_key values are < (p^2 + p + 1)^2 (p + 2) < 2^56.
# Bulk int64 arrays are reduced mod p by `_mod`, x - (x // p) * p, which
# equals x % p on every int64 and so on all of the bounds above; numpy's // by
# a scalar is several times faster than its %.
_ENUM_P_CAP = 2048


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for an int64 array x, as x - (x // p) * p.

    Floor division puts x - (x // p) * p in [0, p) for every int64, negatives
    included.  Near -2^63, where (x // p) * p can leave the int64 range, the
    int64 product and difference wrap, and the remainder is still exact.
    numpy divides an integer array by a scalar through libdivide but takes %
    the slow way: on 8,192 int64 values at p = 503, x % p took 32-51 us,
    x // p 6.5-7.2 us and this 12-18 us (timeit, numpy 2.4.6, 2-core x86
    VM).  Like %, it allocates one temporary.

    Its three ufunc calls lose to one % on small arrays and tie near 500
    values: 1.7 against 1.0 us on 90 values, 2.3 against 2.5 us on 540 and
    3.4 against 5.5 us on 1,440 (timeit, p = 101).  So % stays on scalar
    Python ints, on the engine's 3 x 3 and 6 x 6 coefficient matrices, and
    in the resultant scan on the arrays with a few entries per line or
    point: the forms' z-coefficients on the lines where R vanishes, the
    forms at the candidate points, and `_resultant`'s Leibniz sums (17 per
    side).  The scan's arrays with hundreds of entries per side of its stack
    use this helper: L and Q at the 90 nodes (270 and 540), the six forms
    there and their z-coefficients (540 each), the Bezout entries (16 per
    node), R on every line (p + 1) and the pair's first form at every z (p
    per line).
    """
    q = x // p
    q *= p
    return np.subtract(x, q, out=q)


# Plane-table rows per block of the root pass, whose per-base temporaries are
# therefore O(block), not O(p^2).  Measured on fiber_pairs("x"): at p = 503
# and 1009 blocks of 2^12 to 2^15 rows tie, at about 2/3 of the unblocked
# time; at p = 2039 2^12 is 10-15% slower than 2^13 and 2^14; and 2^14 holds
# all 10,303 bases of p = 101 in one block, which raised the peak RSS of a
# p = 101 run by 0.5 MB where 2^13 lowered it.
_ROOT_BLOCK = 1 << 13

# Res_z(G_0, G_1) on the affine chart (1, y, z) is a polynomial of degree
# <= 16 in y, so its values at the nodes y = 0..16 determine it.
_RES_NODES = 17


def phase_key(ia: np.ndarray, ib: np.ndarray, code: np.ndarray, p: int) -> np.ndarray:
    """One int64 key per phase record from plane-table row indices and a code.

    Increasing in (ia, ib, code) for row indices < p^2 + p + 1 and codes in
    0..p + 1.  Dense indices keep it in int64 where two base-p coordinate codes
    (< p^6) would not.
    """
    return (ia * (p * p + p + 1) + ib) * (p + 2) + code


class PlaneTable:
    """Canonical P^2(F_p) points plus lookup tables, cached per prime.

    Besides the points it holds only O(p) tables, all built here: the
    inverses, the square roots and, for p >= 17, the tables of the resultant
    scan of `degenerate_rows`.  Bulk passes form the Q monomials of the rows
    they read, a block at a time (`blocks`), so the table keeps no
    (p^2 + p + 1, 6) monomial array.
    """

    _cache: dict[int, "PlaneTable"] = {}

    def __new__(cls, p: int):
        if p in cls._cache:
            return cls._cache[p]
        if p > _ENUM_P_CAP:
            raise BadModulus(f"plane enumeration capped at p <= {_ENUM_P_CAP}, got {p}")
        self = super().__new__(cls)
        self.p = p
        PrimeField(p)  # raises BadModulus for a bad p
        # (0, 0, 1), then (0, 1, z), then (1, y, z), each in lexicographic
        # order: index_of's closed form and phase_key's order rely on it.
        pts = np.zeros((p * p + p + 1, 3), dtype=np.int64)
        pts[0, 2] = 1
        pts[1:p + 1, 1] = 1
        pts[1:p + 1, 2] = np.arange(p)
        affine = pts[p + 1:].reshape(p, p, 3)
        affine[:, :, 0] = 1
        affine[:, :, 1] = np.arange(p)[:, None]
        affine[:, :, 2] = np.arange(p)
        self.pts = pts
        # inv[0] = 0; sqrt holds the smaller root of each square and -1 for a
        # non-residue: r -> r^2 is one-to-one on r <= (p - 1) / 2.
        self.inv = np.array([pow(a, p - 2, p) for a in range(p)], dtype=np.int64)
        self.sqrt = np.full(p, -1, dtype=np.int64)
        roots = np.arange((p + 1) // 2, dtype=np.int64)
        self.sqrt[_mod(roots * roots, p)] = roots
        # The resultant scan of `degenerate_rows` (p >= 17): the points
        # (0, 1, z) and (1, y, z) for y < 17, z < 5 and their monomials;
        # `zcoef`, whose [z, k] is the coefficient of t^k in the Lagrange
        # basis polynomial of node z on the nodes 0..4, so values at z = 0..4
        # times zcoef are a quartic's z-coefficients; `zpow`, whose [k, z] is
        # z^k, so coefficients times zpow are the values at every z; and the
        # (p + 1) x 18 `line_basis`, which takes values on the 18 scan lines
        # (at infinity, then y = 0..16) to every line: row 0 picks the line
        # at infinity, and row 1 + y is the Lagrange basis on the nodes 0..16
        # at y, which extends 17 values of a polynomial of degree <= 16.
        if p >= _RES_NODES:
            ys, zs = np.divmod(np.arange(5 * _RES_NODES), 5)
            self.res_pts = pts[np.concatenate([1 + np.arange(5), 1 + p + p * ys + zs])]
            self.res_mon = self.monomials(self.res_pts)
            self.zcoef = np.array([_lagrange_coefficients(z, 5, p) for z in range(5)],
                                  dtype=np.int64)
            self.zpow = _mod(np.arange(p, dtype=np.int64) ** np.arange(5)[:, None], p)
            self.line_basis = np.zeros((p + 1, 1 + _RES_NODES), dtype=np.int64)
            self.line_basis[0, 0] = 1
            self.line_basis[1:, 1:] = self._lagrange_basis(_RES_NODES)
        cls._cache[p] = self
        return self

    def monomials(self, pts: np.ndarray) -> np.ndarray:
        """The 6 quadratic monomials of each point, in PAIRS order, mod p: (N, 6).

        Returned as the transpose of a (6, N) array, which the root pass
        multiplies by.
        """
        pts = np.asarray(pts, dtype=np.int64)
        mon = np.empty((6, len(pts)), dtype=np.int64)
        for k, (i, j) in enumerate(PAIRS):
            np.multiply(pts[:, i], pts[:, j], out=mon[k])
        return _mod(mon, self.p).T

    def blocks(self):
        """(first row, points, monomials) of consecutive runs of `_ROOT_BLOCK` rows."""
        for start in range(0, len(self.pts), _ROOT_BLOCK):
            pts = self.pts[start:start + _ROOT_BLOCK]
            yield start, pts, self.monomials(pts)

    def coords(self, *rows: np.ndarray) -> np.ndarray:
        """The points at the given table rows side by side: (N, 3 * len(rows))."""
        return self.pts.take(np.stack(rows, axis=1), axis=0).reshape(-1, 3 * len(rows))

    def index_of(self, pt) -> int:
        """Row index of one canonical point, given as its three ints.

        Closed form from the table's order: (0,0,1) is row 0, (0,1,x2) row
        1 + x2 and (1,x1,x2) row 1 + p + p*x1 + x2.  Any other point, an
        entry outside 0..p-1 or the zero point raises KeyError.
        """
        x0, x1, x2 = pt
        p = self.p
        if x0 == 1 and 0 <= x1 < p and 0 <= x2 < p:
            return 1 + p + p * x1 + x2
        if (x0, x1) == (0, 1) and 0 <= x2 < p:
            return 1 + x2
        if (x0, x1, x2) == (0, 0, 1):
            return 0
        raise KeyError(f"{tuple(pt)} is not a point of the canonical table")

    def _lagrange_basis(self, n: int) -> np.ndarray:
        """The p x n Lagrange basis on the nodes 0..n-1, mod p (n <= p).

        Entry [y, i] is prod_{j != i} (y - j) / (i - j): off the nodes it is
        P(y) / (y - i) times the inverse of prod_{j != i} (i - j), with
        P(y) = prod_j (y - j); on the nodes the basis is the identity.
        """
        p = self.p
        ys = np.arange(p, dtype=np.int64)
        full = np.ones(p, dtype=np.int64)
        for j in range(n):
            full = _mod(full * (ys - j), p)
        lead = [pow(prod(i - j for j in range(n) if j != i) % p, p - 2, p) for i in range(n)]
        basis = _mod(full[:, None] * self.inv[_mod(ys[:, None] - np.arange(n), p)], p)
        basis = _mod(basis * lead, p)
        basis[:n] = np.eye(n, dtype=np.int64)
        return basis

    def canonicalize(self, pts: np.ndarray) -> np.ndarray:
        """Scale rows so the first nonzero coordinate is 1."""
        pts = np.asarray(pts, dtype=np.int64)
        nz = pts != 0
        lead_pos = np.argmax(nz, axis=1)
        lead = pts[np.arange(len(pts)), lead_pos]
        if np.any(lead == 0):
            raise ValueError("zero vector cannot be canonicalized")
        return _mod(pts * self.inv[lead][:, None], self.p)


def g_form(L, q, k: int):
    """G_k = L_j^2 Q_ii - L_i L_j Q_ij + L_i^2 Q_jj with {i, j, k} = {0, 1, 2}, i < j."""
    i, j = [t for t in range(3) if t != k]
    return L[j] * L[j] * q(i, i) - L[i] * L[j] * q(i, j) + L[i] * L[i] * q(j, j)


def h_form(L, q, i: int, j: int, k: int):
    """H_ij = 2 L_i L_j Q_kk - L_i L_k Q_jk - L_j L_k Q_ik + L_k^2 Q_ij, (i, j, k) in SWAP_PAIRS."""
    return (2 * L[i] * L[j] * q(k, k) - L[i] * L[k] * q(j, k)
            - L[j] * L[k] * q(i, k) + L[k] * L[k] * q(i, j))


def gh_formula(L, q):
    """The fiber quadratics' coefficients: (G_0, G_1, G_2) and {(i, j): H_ij}.

    The forms are `g_form` and `h_form`.  L holds the 3 linear coefficients
    and q(i, j) returns the quadratic coefficient of x_i x_j in either index
    order.  Any ring works: SparsePoly, FieldElement, Fraction or int64
    columns.  The H dict is keyed (0, 1), (0, 2), (1, 2), in SWAP_PAIRS order.
    """
    g = tuple(g_form(L, q, k) for k in range(3))
    return g, {(i, j): h_form(L, q, i, j, k) for (i, j, k) in SWAP_PAIRS}


def pair_getter(coeffs):
    """q(i, j) reading 6 coefficients stored in PAIRS order."""
    return lambda i, j: coeffs[PAIR_AT[i][j]]


def _gh_forms(lc, qc, p: int) -> np.ndarray:
    """G_0, G_1, G_2, H_01, H_02, H_12 mod p, stacked on a new first axis.

    lc (3, ...) and qc (6, ...) hold residues of the L and Q coefficients,
    coefficient first, so each of `gh_formula`'s products runs on whole
    int64 arrays; the six unreduced forms are reduced by one `_mod`.
    """
    g, h = gh_formula(lc, pair_getter(qc))
    return _mod(np.stack(g + tuple(h.values())), p)


def gh_eval(lc: np.ndarray, qc: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """G_k and H_kl values from residues of L (..., 3) and Q (..., 6) coefficients.

    `_gh_forms` on the coefficient columns.  Columns of H follow SWAP_PAIRS
    order: H01, H02, H12.
    """
    forms = np.moveaxis(_gh_forms(np.moveaxis(lc, -1, 0), np.moveaxis(qc, -1, 0), p), 0, -1)
    return forms[..., :3], forms[..., 3:]


def _lagrange_coefficients(i: int, n: int, p: int) -> list[int]:
    """Coefficients mod p, by ascending power, of the Lagrange basis
    polynomial of node i on the nodes 0..n-1 (n <= p)."""
    coeffs, den = [1], 1
    for j in range(n):
        if j != i:
            coeffs = [(lo - j * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
            den = den * (i - j) % p
    inv = pow(den, p - 2, p)
    return [c * inv % p for c in coeffs]


def _bezout_tables(d: int):
    """The Bezout entries and Leibniz terms for two polynomials of degree <= d.

    For f = sum a_u z^u and g = sum b_v z^v,
    (f(x) g(y) - f(y) g(x)) / (x - y) = sum B_ij x^i y^j, and B_ij is the
    sum of the brackets [u, v] = a_u b_v - a_v b_u (u > v) over
    i = v + t, j = u - 1 - t, 0 <= t < u - v.  det B is (-1)^(d(d-1)/2)
    times the Sylvester determinant Res_z(f, g) of f and g as polynomials of
    degree d.

    Returns (u, v, terms, cells, signs): the brackets [u[n], v[n]], the last
    of them [0, 0] = 0; terms, 2 x d^2, with B_ij the sum of the brackets
    terms[0, di + j] and terms[1, di + j] (no entry has more than two, and
    one missing is the zero bracket); and the positions di + perm(i) of each
    Leibniz product, one row per permutation of d, with its sign.
    """
    pairs = [(u, v) for u in range(d + 1) for v in range(u)] + [(0, 0)]
    terms = [[] for _ in range(d * d)]
    for n, (u, v) in enumerate(pairs):
        for t in range(u - v):
            terms[d * (v + t) + u - 1 - t].append(n)
    zero = len(pairs) - 1
    terms = np.array([ts + [zero] * (2 - len(ts)) for ts in terms], dtype=np.int64).T
    perms = np.array(list(permutations(range(d))), dtype=np.int64)
    signs = np.array([(-1) ** sum(a > b for a, b in combinations(perm, 2))
                      for perm in perms.tolist()], dtype=np.int64)
    u, v = np.array(pairs, dtype=np.int64).T
    return u, v, terms, d * np.arange(d) + perms, signs


# Indexed by the degree d in z, 1..4, of the resultant scan's polynomials.
_BEZOUT = [None] + [_bezout_tables(d) for d in range(1, 5)]


def _resultant(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """+-Res_z(f, g) mod p for rows of z-coefficients (n, d + 1), 1 <= d <= 4.

    The determinant of the d x d Bezout matrix (`_bezout_tables`), reduced
    mod p, by Leibniz's d! products of d residues.  It vanishes exactly
    where f and g have a common root or both z^d coefficients vanish.
    """
    d = f.shape[1] - 1
    u, v, terms, cells, signs = _BEZOUT[d]
    brackets = f[:, u] * g[:, v] - f[:, v] * g[:, u]
    factors = _mod(brackets[:, terms[0]] + brackets[:, terms[1]], p)[:, cells]
    prods = factors[..., 0]
    for c in range(1, d):
        prods = prods * factors[..., c]
    return prods @ signs % p


# The pairs of the six forms (G_0, G_1, G_2, H_01, H_02, H_12), in the order
# the resultant scan tries them.
_FORM_PAIRS = np.array(list(combinations(range(6), 2)))


def degenerate_rows(lrows: np.ndarray, qrows: np.ndarray, p: int) -> list:
    """Per side of a stack, the table rows, ascending, of its degenerate bases.

    lrows (n, 3, 3) and qrows (n, 6, 6) hold n sides' (L rows, Q rows) of
    `side_rows`, residues mod p.  A base is degenerate exactly where every
    G_k and H_ij vanishes.  Write l for the 3 coefficients of L(base, .),
    n_k = e_k x l and B for the polar form of Q; then G_k = Q(n_k) and
    H_ij = -B(n_i, n_j).  When l != 0 the n_k span the fiber line
    L(base, .) = 0, so all of G and H vanish exactly when Q vanishes on that
    whole line.  When l = 0 all of them vanish, being of degree 2 in l.

    One `_resultant_scan` covers the whole stack.  A side it cannot narrow
    (p < 17, or every pair of forms shares a factor) goes alone to
    `_gh_zeros`, which tests all six forms on every table row.  Either way
    the common zeros of the six forms are found exactly.
    """
    return [_gh_zeros(lr, qr, p) if rows is None else rows
            for lr, qr, rows in zip(lrows, qrows, _resultant_scan(lrows, qrows, p))]


def _gh_zeros(lrows: np.ndarray, qrows: np.ndarray, p: int) -> np.ndarray:
    """The table rows, ascending, where every G_k and H_ij of one side vanishes.

    All six forms are evaluated on every row, a block of `_ROOT_BLOCK` rows
    at a time.
    """
    found = []
    for start, pts, mon in PlaneTable(p).blocks():
        G, H = gh_eval(_mod(pts @ lrows.T, p), _mod(mon @ qrows.T, p), p)
        found.append(start + np.flatnonzero(~(G.any(axis=1) | H.any(axis=1))))
    return np.concatenate(found)


def _resultant_scan(lrows: np.ndarray, qrows: np.ndarray, p: int) -> list:
    """Per side of a stack, the rows where every G_k and H_ij vanishes, or None.

    On the line (0, 1, z) at infinity and on each affine line (1, y, z)
    every form is a quartic in z, read off its values at z = 0..4
    (`zcoef`); the z^4 coefficient at infinity is the value at (0, 0, 1),
    row 0.  On the affine lines the z^k coefficient has degree <= 4 - k in
    y, so it vanishes identically if it does at y = 0..16.  For a pair of
    forms, let d be the largest k whose coefficient is not identically zero
    for both; their resultant in z as polynomials of degree d, R(y), is the
    d x d Bezout determinant (`_resultant`), of degree <= 8d - d^2 <= 16 in
    y.  It is computed at y = 0..16 and extended to every y by `line_basis`.
    A common zero of the pair on a line makes R vanish there; a line where
    both z^d coefficients vanish only adds a candidate.  The pair is G_0
    and G_1, or the next pair of `_FORM_PAIRS` if their R vanishes
    identically, as when they share a factor.

    On the line at infinity and the lines where R vanishes the forms'
    coefficients come from the nodes by `line_basis`; the zeros of the
    pair's first form at every z (`zpow`) are the candidates where all six
    are evaluated.

    Each step runs once on all the sides of the stack that reach it: one
    `_resultant` call per pair and degree d that some side needs, and one
    call of each later step for all the lines of all sides.  Arrays with
    hundreds of entries per side are reduced by `_mod`; the forms on the
    lines where R vanishes, at the candidate points and `_resultant`'s
    Leibniz sums, a few entries per line or point, keep %.  A side's entry
    is None when the scan cannot narrow its search: p < 17, or every pair's
    R vanishes identically, as when all six forms share a factor.
    """
    n = len(lrows)
    if p < _RES_NODES:
        return [None] * n
    tbl = PlaneTable(p)
    # (side, form, line, k): the z^k coefficients of each form on the line at
    # infinity, then on the lines y = 0..16.
    forms = _gh_forms(_mod(lrows @ tbl.res_pts.T, p).swapaxes(0, 1),
                      _mod(qrows @ tbl.res_mon.T, p).swapaxes(0, 1), p)
    coeffs = _mod(forms.reshape(6, n, 1 + _RES_NODES, 5) @ tbl.zcoef, p).swapaxes(0, 1)
    pair = np.full(n, -1)
    # res[side, 1 + y] is R(y) of the side's pair at the node y; res[side, 0]
    # stays 0.
    res = np.zeros((n, 1 + _RES_NODES), dtype=np.int64)
    todo = np.arange(n)
    for k, fg in enumerate(_FORM_PAIRS):
        nodes = coeffs[todo[:, None], fg, 1:]
        # d is the highest power of z with a nonzero coefficient.  A side
        # with none gets d = 4, where the resultant of zero rows is 0, and
        # one with d = 0 gets no resultant: both go on to the next pair.
        degree = 4 - nodes.any(axis=(1, 2))[:, ::-1].argmax(axis=1)
        for d in set(degree.tolist()) - {0}:
            group = np.flatnonzero(degree == d)
            f, g = nodes[group, :, :, :d + 1].swapaxes(0, 1).reshape(2, -1, d + 1)
            r = _resultant(f, g, p).reshape(-1, _RES_NODES)
            ok = r.any(axis=1)
            res[todo[group[ok]], 1:] = r[ok]
            pair[todo[group[ok]]] = k
        todo = todo[pair[todo] < 0]
        if not len(todo):
            break
    # The line at infinity of every narrowed side (res[side, 0] = 0 picks
    # it), then the lines y where its R vanishes: (side, line, z) comes out
    # of nonzero in order, so each side's rows are ascending.
    narrow = np.flatnonzero(pair >= 0)
    at, col = np.nonzero(_mod(res[narrow] @ tbl.line_basis.T, p) == 0)
    side = narrow[at]
    # (line, form, k): the z^k coefficients of each form on those lines.
    lines = (tbl.line_basis[col, None, None] @ coeffs[side])[:, :, 0] % p
    first = lines[np.arange(len(side)), _FORM_PAIRS[pair[side], 0]]
    line, zs = np.nonzero(_mod(first @ tbl.zpow, p) == 0)
    values = (lines[line] * tbl.zpow[:, zs].T[:, None, :]).sum(axis=2) % p
    common = ~values.any(axis=1)
    # Line col starts at row 1 + p col: (0, 1, z) is row 1 + z, (1, y, z)
    # row 1 + p + p y + z.
    line = line[common]
    rows = 1 + p * col[line] + zs[common]
    cut = np.searchsorted(side[line], np.arange(n + 1)).tolist()
    # Row 0, (0, 0, 1), where every form's z^4 coefficient at infinity vanishes.
    top = ~coeffs[:, :, 0, 4].any(axis=1)
    out = [None] * n
    for s in narrow.tolist():
        out[s] = rows[cut[s]:cut[s + 1]]
        if top[s]:
            out[s] = np.concatenate([[0], out[s]])
    return out


def binary_other_root(A, B, C, alpha, beta, p: int):
    """Second root of A*t1^2 + B*t0*t1 + C*t0^2 given the root (alpha, beta).

    Everything vectorized mod p; returns (gamma, delta) with the convention
    that a double root reproduces (alpha, beta) projectively.
    """
    use = _mod(alpha, p) != 0
    gamma = _mod(np.where(use, A * alpha, B), p)
    delta = _mod(np.where(use, -(B * alpha + A * beta), -C), p)
    return gamma, delta


class SurfaceEngine:
    """Bulk operations for one Wehler surface over F_p."""

    def __init__(self, amat, bmat, p: int):
        self.p = p
        self.table = PlaneTable(p)
        self.amat = np.asarray(amat, dtype=np.int64) % p
        self.bmat = np.asarray(bmat, dtype=np.int64) % p
        self._rows = [side_rows(self.amat, self.bmat, side) for side in SIDES]

    # -- per-base coefficient collections ----------------------------------

    def rows(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """The side's (L rows, Q rows) of `side_rows` as int64 arrays."""
        return self._rows[side_index(side)]

    def line_coeffs(self, side: str, bases: np.ndarray) -> np.ndarray:
        """L restricted to the fiber over each base: 3 linear coefficients.

        side 'x': bases are a in P^2_x, coefficients of y_j in L(a, .).
        side 'y': bases are b in P^2_y, coefficients of x_i in L(., b).
        Both read the side's L rows (`rows`).
        """
        return _mod(bases @ self.rows(side)[0].T, self.p)

    def quad_coeffs(self, side: str, mon: np.ndarray) -> np.ndarray:
        """Q restricted to the fiber: 6 quadratic coefficients per base, from its Q rows."""
        return _mod(mon @ self.rows(side)[1].T, self.p)

    # -- full fiber analysis over one side ----------------------------------

    def degenerate_bases(self, side: str) -> list:
        """(base row, kind) for every base of the side with a degenerate fiber.

        `degenerate_rows` on a stack of this one side, then `fiber_kinds`.
        """
        lrows, qrows = self.rows(side)
        return self.fiber_kinds(side, degenerate_rows(lrows[None], qrows[None], self.p)[0])

    def fiber_kinds(self, side: str, rows: np.ndarray) -> list:
        """(row, kind) for degenerate base rows of the side, in the given order.

        kind is "line" where L(base, .) != 0, else "conic", or "plane" if
        Q(base, .) = 0.
        """
        if not len(rows):
            return []
        bases = self.table.pts[rows]
        line = self.line_coeffs(side, bases).any(axis=1).tolist()
        conic = self.quad_coeffs(side, self.table.monomials(bases)).any(axis=1).tolist()
        return [(row, "line" if l else "conic" if q else "plane")
                for row, l, q in zip(rows.tolist(), line, conic)]

    def analyze(self, side: str):
        """`fiber_pairs` as (N, 6) coordinates [x | y], and `degenerate_bases`."""
        return self.table.coords(*self.fiber_pairs(side)), self.degenerate_bases(side)

    def fiber_pairs(self, side: str):
        """Solve every fiber of the chosen projection in plane-table rows.

        `_fiber_roots` gives each base's fiber as rows in increasing order,
        solving the bases a block at a time, so that besides its results
        only its three per-base outputs span all p^2 + p + 1 bases.  The rows
        are written at the base's offset in the running sum of the per-base
        counts, so side x's pairs come out in order and no sort runs.  Side
        y sorts its pairs by one int64 key.

        Returns (x rows, y rows): the plane-table row indices of the two
        coordinates of each rational point, lex sorted (table rows are in
        lex order).
        """
        tbl = self.table
        n = len(tbl.pts)
        lo, hi, size, fibers = self._fiber_roots(side)
        start = np.cumsum(size)
        fib_rows = np.empty(int(start[-1]), dtype=np.int64)
        start -= size
        at = np.flatnonzero(size >= 1)
        fib_rows[start[at]] = lo[at]
        at = np.flatnonzero(size == 2)
        fib_rows[start[at] + 1] = hi[at]
        del lo, hi, at
        # Degenerate bases' blocks last, over what lo and hi wrote there.
        for b, rows in fibers.items():
            fib_rows[start[b]:start[b] + len(rows)] = rows
        base_rows = np.repeat(np.arange(n), size)
        if side == "x":
            x_rows, y_rows = base_rows, fib_rows
        else:
            # Table rows are in lex order, so this one key sorts the pairs lex.
            order = np.argsort(fib_rows * n + base_rows)
            x_rows, y_rows = fib_rows[order], base_rows[order]
        return x_rows, y_rows

    def _fiber_roots(self, side: str):
        """The rational points of every fiber as plane-table rows, per base.

        Over each base the fiber is the zero set of Q(base, .) on the line
        c.y = 0, c = L(base, .), both restricted to the base by the side's
        rows (`rows`).  The line is parametrized in an affine chart, u + t v
        for t in F_p plus the point v, chosen so that the table row of u + t v
        is a closed form increasing in t and v's row is below all of them.
        Q(u + t v) = A + B t + C t^2 then gives the roots as rows.

        The bases are solved in blocks of `_ROOT_BLOCK` table rows, each
        with the Q monomials of its own rows, so the per-base temporaries
        are O(block) and only lo, hi and size span all bases.  A base's
        result does not depend on its block.

        Returns (lo, hi, size, fibers): size[base] is the number of points
        over each base; a finite fiber's (0, 1 or 2) are at rows
        lo[base] < hi[base], lo alone for one point; fibers maps every
        degenerate base to its points' rows in increasing order.
        """
        p = self.p
        tbl = self.table
        inv = tbl.inv
        n = len(tbl.pts)
        lrows, qrows = self.rows(side)
        lo = np.empty(n, dtype=np.int64)
        hi = np.empty_like(lo)
        size = np.empty_like(lo)
        fibers, special = {}, []
        ts = np.arange(p)
        for start, pts, mon in tbl.blocks():
            # One row per coefficient of L(base, .) and Q(base, .), unreduced.
            c0, c1, c2 = lrows @ pts.T
            q00, q01, q02, q11, q12, q22 = qrows @ mon.T

            # Chart where c2 != 0: u = (1, 0, e0), v = (0, 1, e1), e_i = -c_i/c2.
            # u + t v = (1, t, e0 + e1 t) is row 1 + p + p t + (e0 + e1 t) % p,
            # and v is row 1 + e1.
            c2 = _mod(c2, p)
            e0 = _mod(-c0 * inv[c2], p)
            e1 = _mod(-c1 * inv[c2], p)
            A = _mod(q00 + (q02 + q22 * e0) * e0, p)
            B = _mod(q01 + q02 * e1 + (q12 + 2 * q22 * e1) * e0, p)
            C = _mod(q11 + (q12 + q22 * e1) * e1, p)
            v_row = 1 + e1
            off = np.full(len(pts), 1 + p)
            step = np.full(len(pts), p)
            # Lines with c2 = 0 pass through v = (0, 0, 1), row 0.  Where c1 != 0,
            # u = (1, f, 0) with f = -c0/c1, so u + t v = (1, f, t) is row
            # 1 + p + p f + t; otherwise u = (0, 1, 0) and u + t v is row 1 + t.
            flat = np.flatnonzero(c2 == 0)
            f0, f1 = _mod(c0[flat], p), _mod(c1[flat], p)
            fq = _mod(np.stack([q[flat] for q in (q00, q01, q02, q11, q12, q22)]), p)
            f = _mod(-f0 * inv[f1], p)
            pivot1 = f1 != 0
            A[flat] = _mod(np.where(pivot1, fq[0] + (fq[1] + fq[3] * f) * f, fq[3]), p)
            B[flat] = _mod(np.where(pivot1, fq[2] + fq[4] * f, fq[4]), p)
            C[flat] = fq[5]
            v_row[flat] = 0
            off[flat] = np.where(pivot1, 1 + p + p * f, 1)
            step[flat] = 0
            e0[flat] = 0
            e1[flat] = 1

            def rows_at(t, b=slice(None)):
                return off[b] + step[b] * t + _mod(e0[b] + e1[b] * t, p)

            # Roots: v where C = 0, beside -A/B where B != 0; else (-B +- r)/2C
            # with r^2 the discriminant: one root where r = 0, none where r = -1
            # (the sqrt table's mark for a non-square).
            r = tbl.sqrt[_mod(B * B - 4 * A * C, p)]
            half_c = inv[C] * ((p + 1) // 2)
            t_plus = _mod((r - B) * half_c, p)
            t_minus = _mod((-r - B) * half_c, p)
            block = slice(start, start + len(pts))
            lo[block] = rows_at(np.minimum(t_plus, t_minus))
            hi[block] = rows_at(np.maximum(t_plus, t_minus))
            size[block] = 1 + np.sign(r)
            # The bases with C = 0, about 1 in p, are overwritten by position.
            on_v = np.flatnonzero(C == 0)
            lo[start + on_v] = v_row[on_v]
            hi[start + on_v] = rows_at(_mod(-A[on_v] * inv[B[on_v]], p), on_v)
            size[start + on_v] = 1 + (B[on_v] != 0)

            # Whole-line fibers (Q vanishes on the line): v and every u + t v.
            # Special bases (L vanishes identically on the fiber plane) are
            # solved after the last block.
            no_line = (f0 == 0) & (f1 == 0)
            whole = (A == 0) & (B == 0) & (C == 0)
            whole[flat[no_line]] = False
            for b in np.flatnonzero(whole):
                fibers[start + b] = np.concatenate([[v_row[b]], rows_at(ts, b)])
            special += [(start + b, q) for b, q in zip(flat[no_line], fq[:, no_line].T)]

        # A special base's fiber is every plane point where Q vanishes, all of
        # them when Q does too; Q is evaluated a block of rows at a time.
        if special:
            zeros = [[] for _ in special]
            for start, _, mon in tbl.blocks():
                for found, (_, q) in zip(zeros, special):
                    found.append(start + np.flatnonzero(_mod(mon @ q, p) == 0))
            for found, (b, _) in zip(zeros, special):
                fibers[b] = np.concatenate(found)
        size[list(fibers)] = [len(rows) for rows in fibers.values()]
        return lo, hi, size, fibers

    # -- rational-point Jacobian rank scan -----------------------------------

    def smooth_scan(self, pairs: np.ndarray) -> np.ndarray:
        """Mask of rows where the 2x6 Jacobian of (L, Q) has rank < 2.

        Any rows of coordinates are accepted; `is_smooth_rational` passes
        only the rational points over x-bases whose fiber does not have
        exactly two of them, the only places where one can be singular.
        """
        p = self.p
        a = pairs[:, :3]
        b = pairs[:, 3:]
        # dL/dx_i is side y's line coefficient at b, dL/dy_j side x's at a.
        # dQ/dx_i = sum_j q_ij(b) a_j with q_ii doubled, q side y's quadratic
        # coefficients at b; dQ/dy_k likewise from side x's at a.
        jl = np.empty((len(pairs), 6), dtype=np.int64)
        jq = np.empty_like(jl)
        for off, side, base, w in ((0, "y", b, a), (3, "x", a, b)):
            jl[:, off:off + 3] = self.line_coeffs(side, base)
            qc = self.quad_coeffs(side, self.table.monomials(base))
            for i in range(3):
                jq[:, off + i] = sum((1 + (i == j)) * qc[:, PAIR_AT[i][j]]
                                     * w[:, j] for j in range(3))
        jq = _mod(jq, p)

        jl_nonzero = jl != 0
        has_pivot = np.any(jl_nonzero, axis=1)
        pivot = np.argmax(jl_nonzero, axis=1)
        rows = np.arange(len(a))
        scale = np.where(has_pivot, jq[rows, pivot], 0)
        factor = self.table.inv[np.where(has_pivot, jl[rows, pivot], 1)]
        resid = _mod(jq - _mod(scale * factor, p)[:, None] * jl, p)
        rank_lt_2 = ~has_pivot | np.all(resid == 0, axis=1)
        # If jl == 0 but jq != 0 the rank is 1, still singular for a surface.
        return rank_lt_2

    # -- Vieta fiber swap ------------------------------------------------------

    def cor1_swap(self, side: str, bases: np.ndarray, moving: np.ndarray) -> np.ndarray:
        """Partner of each moving point in the 2-point fiber over its base.

        side 'x': bases in P^2_x, moving points are the y coordinates.
        side 'y': bases in P^2_y, moving points are the x coordinates.
        Bases must be non-degenerate; double roots return the input point.
        The census swaps records within their fiber groups
        (`PhaseSpace.perm`); this G/H Vieta kernel is the bulk reference that
        tests compare it with.
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
        third = _mod(_mod(-(lk * gamma + ll * delta), p) * tbl.inv[lm], p)
        out = np.zeros_like(moving)
        out[rows, k] = gamma
        out[rows, l] = delta
        out[rows, m] = third
        return tbl.canonicalize(out)
