import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from wehlerk3 import _engine
from wehlerk3._engine import (
    _ENUM_P_CAP,
    PAIRS,
    PlaneTable,
    _gh_zeros,
    _mod,
    _resultant,
    _resultant_scan,
    degenerate_rows,
    gh_eval,
    gh_formula,
    pair_getter,
    phase_key,
    stack_sides,
)
from wehlerk3.errors import ZeroForm
from wehlerk3.field import PrimeField
from wehlerk3.surface import (
    VARS6,
    WehlerSurface,
    _fiber_restriction,
    degenerate_fibers,
    gh_system,
    gh_values,
    parse_surface,
    random_surface,
    surface_pairs,
)

H_KEYS = ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize("seed,mode", [(3, "any"), (5, "degenerate")])
def test_gh_bulk_scalar_and_symbolic_agree_at_every_base(seed, mode):
    p = 29
    s = random_surface(p, seed=seed, mode=mode)
    eng = s.engine()
    bases = eng.table.pts
    for side in ("x", "y"):
        G, H = gh_eval(eng.line_coeffs(side, bases),
                       eng.quad_coeffs(side, eng.table.monomials(bases)), p)
        sys = gh_system(s, side)
        names = (side + "0", side + "1", side + "2")
        for n, base in enumerate(bases.tolist()):
            g, h = gh_values(s, side, base)
            scalar = [int(v) for v in g] + [int(h[ij]) for ij in H_KEYS]
            at = dict(zip(names, base))
            symbolic = ([int(sys.g[k].evaluate(at)) for k in range(3)]
                        + [int(sys.h[ij].evaluate(at)) for ij in H_KEYS])
            assert G[n].tolist() + H[n].tolist() == scalar == symbolic


def test_gh_eval_int64_headroom():
    # Every row of residues 0 or p - 1 at a prime near the cap, including the
    # all-(p - 1) row.  `gh_formula` forms each G_k from 3 products of three
    # residues and each H_ij from 5 (one term doubled), so the unreduced
    # forms are bounded by |G_k| <= 3(p - 1)^3 and |H_ij| <= 5(p - 1)^3 <
    # 2^36; the int64 forms must match Python-int arithmetic.
    p = 2039
    m = _ENUM_P_CAP - 1
    assert p <= _ENUM_P_CAP and 5 * m ** 3 < 2 ** 36
    rows = np.array(list(itertools.product((0, p - 1), repeat=9)), dtype=np.int64)
    G, H = gh_eval(rows[:, :3], rows[:, 3:], p)
    for n, row in enumerate(rows.tolist()):
        g, h = gh_formula(row[:3], pair_getter(row[3:]))
        assert max(map(abs, g)) <= 3 * (p - 1) ** 3
        assert max(abs(v) for v in h.values()) <= 5 * (p - 1) ** 3
        assert G[n].tolist() == [v % p for v in g]
        assert H[n].tolist() == [h[ij] % p for ij in H_KEYS]


def _sylvester_resultant(f, g, p):
    """Res_z mod p of two polynomials of degree d (ascending coefficients):
    the 2d x 2d Sylvester determinant by Gaussian elimination on Python ints."""
    d = len(f) - 1
    rows = [[0] * i + f[::-1] + [0] * (d - 1 - i) for i in range(d)]
    rows += [[0] * i + g[::-1] + [0] * (d - 1 - i) for i in range(d)]
    rows = [[v % p for v in row] for row in rows]
    det = 1
    for c in range(2 * d):
        pivot = next((r for r in range(c, 2 * d) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], p - 2, p)
        for r in range(c + 1, 2 * d):
            t = rows[r][c] * inv % p
            rows[r] = [(a - t * b) % p for a, b in zip(rows[r], rows[c])]
    return det % p


def test_resultant_filter_int64_headroom():
    # At a prime near the cap, with residues 0 and p - 1 (and p - 2, so no
    # bracket cancels by symmetry): the z-coefficients from values at
    # z = 0..4 and a quartic's values from its coefficients (sums < 5p^2),
    # the Bezout brackets and products of d <= 4 terms (|det| < 24p^4 < 2^49)
    # at every degree d the scan uses, and the (p + 1) x 18 line basis
    # product (< 18p^2) must match Python-int arithmetic, and the scan must
    # find what the reference kernel finds.
    p = 2039
    cap = _ENUM_P_CAP
    assert p <= cap and 5 * cap ** 2 < 2 ** 25 and 24 * cap ** 4 < 2 ** 49
    assert 18 * cap ** 2 < 2 ** 31
    tbl = PlaneTable(p)

    def basis(i, y):
        num = den = 1
        for j in range(17):
            if j != i:
                num, den = num * (y - j), den * (i - j)
        return num * pow(den, -1, p) % p

    for y in (0, 4, 16, 17, 1000, p - 1):
        assert tbl.line_basis[1 + y, 1:].tolist() == [basis(i, y) for i in range(17)]
    assert tbl.line_basis[0].tolist() == [1] + [0] * 17
    assert np.all(tbl.line_basis @ np.full(18, p - 1) % p == p - 1)
    values = np.array(list(itertools.product((0, p - 1), repeat=5)), dtype=np.int64)
    for row, coeffs in zip(values.tolist(), (values @ tbl.zcoef % p).tolist()):
        assert [sum(c * z ** k for k, c in enumerate(coeffs)) % p for z in range(5)] == row
    at_every_z = (values @ tbl.zpow % p).tolist()
    for coeffs, got in zip(values.tolist(), at_every_z):
        assert [got[z] for z in (0, 2, p - 1)] == [
            sum(c * z ** k for k, c in enumerate(coeffs)) % p for z in (0, 2, p - 1)]
    extremes = list(itertools.product((0, p - 2, p - 1), repeat=5))[::7]
    f, g = (np.array(c, dtype=np.int64) for c in zip(*itertools.product(extremes, repeat=2)))
    for d in (4, 3, 2, 1):
        res = _resultant(f[:, :d + 1], g[:, :d + 1], p)
        sign = (-1) ** (d * (d - 1) // 2)
        assert res.tolist() == [sign * _sylvester_resultant(a[:d + 1], b[:d + 1], p) % p
                                for a, b in zip(f.tolist(), g.tolist())]
        assert res.any() and not res.all()
    rng = random.Random(0)
    for _ in range(3):
        a = [[rng.choice((1, p - 2, p - 1)) for _ in range(3)] for _ in range(3)]
        b = [[rng.choice((1, p - 2, p - 1)) for _ in range(6)] for _ in range(6)]
        s = WehlerSurface(PrimeField(p), a, b)
        eng = s.engine()
        for side in ("x", "y"):
            lrows, qrows = eng.rows(side)
            assert _resultant_scan(lrows[None], qrows[None], p)[0] is not None
            assert (_with_kinds(s, side, eng.degenerate_bases(side))
                    == _reference_degenerate_bases(eng, side))


def test_mod_equals_remainder_on_every_stated_bound():
    # `_mod` reduces every int64 array of the bulk passes.  At a prime near
    # the cap it must equal Python's % and stay int64 on each bound stated at
    # _ENUM_P_CAP, either sign, and on the int64 extremes.
    p = 2039
    assert p <= _ENUM_P_CAP and 24 * _ENUM_P_CAP ** 4 < 2 ** 63
    bounds = [12 * p ** 4, 24 * p ** 4, 5 * (p - 1) ** 3, 72 * p ** 2, 18 * p ** 2, 17 * p ** 2,
              6 * p ** 2, 3 * p ** 3, p, 1]
    edges = [v + d for b in bounds for v in (b, -b) for d in (-1, 0, 1)]
    edges += [0, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).min + 1, np.iinfo(np.int64).max]
    # -c * inv(c2) for the root pass's unreduced c < 3p^2 and every inverse.
    inv = PlaneTable(p).inv
    scaled = [-c * inv for c in (1, p - 1, p, 3 * p * p - 1)]
    rng = np.random.default_rng(0)
    x = np.concatenate([np.array(edges, dtype=np.int64), *scaled,
                        rng.integers(-24 * p ** 4, 24 * p ** 4, 4096)])
    got = _mod(x, p)
    assert got.dtype == np.int64
    assert got.tolist() == [v % p for v in x.tolist()]
    assert np.array_equal(got, x % p)


# sha256 of each side's fiber_pairs rows with their dtypes, pinned from the
# root pass's %-based reductions: (p, seed, mode, points, digest).  Both
# sides return the same lex-sorted pairs.
ROOT_PASS_PINS = [
    (503, 0, "nondegenerate", 253693,
     "3db590f080a5d26fac39ad274851090e2240652943f2e467d583687527d8b7c8"),
    (101, 1, "degenerate", 10425,
     "e652619d236dee5d2174270a997dd604306ca200d627ca77550aa37e6a862286"),
]


@pytest.mark.parametrize("p,seed,mode,points,digest", ROOT_PASS_PINS)
def test_root_pass_rows_are_pinned_at_full_size(p, seed, mode, points, digest):
    eng = random_surface(p, seed, mode=mode).engine()
    for side in ("x", "y"):
        rows = eng.fiber_pairs(side)
        h = hashlib.sha256()
        for r in rows:
            h.update(r.dtype.str.encode())
            h.update(r.tobytes())
        assert len(rows[0]) == points and h.hexdigest() == digest


def test_phase_key_int64_headroom():
    # The table's last rows with the largest code, at a prime near the cap,
    # from row indices alone: the int64 key must match Python-int arithmetic.
    p = 2039
    cap = _ENUM_P_CAP
    assert p <= cap and (cap * cap + cap + 1) ** 2 * (cap + 2) < 2 ** 56
    n = p * p + p + 1
    rows = [(ia, ib) for ia in (n - 2, n - 1) for ib in (n - 2, n - 1)]
    ia, ib = np.array(rows, dtype=np.int64).T
    keys = phase_key(ia, ib, np.full(len(rows), p + 1, dtype=np.int64), p)
    assert keys.tolist() == [(a * n + b) * (p + 2) + p + 1 for a, b in rows]
    assert keys[-1] == (n * n - 1) * (p + 2) + p + 1 == keys.max()
    # PhaseSpace.perm pairs a side's records by dense group ids: a plain
    # record's base row, or n + (center position) * (p + 1) + code for a
    # chart record; below n (p + 2) even were every base a center.
    assert (cap * cap + cap + 1) * (cap + 2) < 2 ** 35
    group = n + ia * (p + 1) + np.full(len(rows), p, dtype=np.int64)
    assert group.tolist() == [n + a * (p + 1) + p for a, _ in rows]
    assert group.max() == n * (p + 2) - 1


def test_partner_index_sums_are_exact_at_the_cap():
    # PhaseSpace.perm finds a record's partner as its group's index sum minus
    # its own index, with the sums from one float64 weighted bincount.  The
    # census at p = 2039 has N = 4,160,321 records, so the sums are < 2N <
    # 2^24; the last two records of a census twice that size must still come
    # out exactly.
    p = 2039
    assert p <= _ENUM_P_CAP and 2 * 4_160_321 < 2 ** 24
    n = 2 * 4_160_321
    group = np.array([0, 1, 1, 2], dtype=np.int64)
    index = np.array([0, n - 3, n - 2, n - 1], dtype=np.float64)
    total = np.bincount(group, weights=index)
    assert total.tolist() == [0, 2 * n - 5, n - 1]
    assert (total.take(group) - index).astype(np.int64).tolist() == [0, n - 2, n - 3, 0]
    assert float(2 ** 24 - 1) + float(2 ** 24 - 2) == 2 ** 25 - 3


def test_analyze_sort_key_int64_headroom():
    # The side-y root pass sorts its pairs by (row of x) * (p^2 + p + 1) +
    # (row of y); side x emits them in order and sorts nothing.  At the
    # table's last rows near the cap the key must match Python-int arithmetic.
    p = 2039
    assert p <= _ENUM_P_CAP and (_ENUM_P_CAP ** 2 + _ENUM_P_CAP + 1) ** 2 < 2 ** 45
    tbl = PlaneTable(p)
    n = p * p + p + 1
    last = [(1, p - 1, p - 2), (1, p - 1, p - 1)]
    rows = [(a, b) for a in last for b in last]
    ia, ib = np.array([[tbl.index_of(a), tbl.index_of(b)] for a, b in rows], dtype=np.int64).T
    keys = ia * len(tbl.pts) + ib
    assert keys.dtype == np.int64
    row = {pt: 1 + p + p * pt[1] + pt[2] for pt in last}
    assert [row[pt] for pt in last] == [n - 2, n - 1]
    assert keys.tolist() == [row[a] * n + row[b] for a, b in rows]
    assert keys[-1] == n * n - 1


def _jacobian_rank_below_2(s, rows):
    """Whether the Jacobian of (L, Q) has rank < 2 at each row, from its 2 x 2 minors."""
    grads = [[f.derivative(v) for v in VARS6] for f in (s.l_poly(), s.q_poly())]
    out = []
    for row in rows.tolist():
        at = dict(zip(VARS6, row))
        jl, jq = ([int(g.evaluate(at)) for g in grad] for grad in grads)
        out.append(all((jl[i] * jq[j] - jl[j] * jq[i]) % s.p == 0
                       for i in range(6) for j in range(i + 1, 6)))
    return np.array(out)


def test_smooth_scan_matches_the_jacobian_minors():
    # Surface points and random rows at p = 29, and at a prime near the cap
    # every row of residues 0 and p - 1 with every coefficient p - 1, where
    # the unreduced dQ entries reach their bound 4(p - 1)^2 < 4p^2.
    rng = np.random.default_rng(0)
    s = random_surface(29, 3)
    p = 2039
    assert p <= _ENUM_P_CAP and 4 * _ENUM_P_CAP ** 2 <= 2 ** 24
    cap = WehlerSurface(PrimeField(p), [[p - 1] * 3] * 3, [[p - 1] * 6] * 6)
    cases = [(s, surface_pairs(s)[::5]), (s, rng.integers(0, 29, size=(150, 6))),
             (cap, np.array(list(itertools.product((0, p - 1), repeat=6))))]
    masks = []
    for surf, rows in cases:
        mask = surf.engine().smooth_scan(rows)
        assert np.array_equal(mask, _jacobian_rank_below_2(surf, rows))
        masks.append(mask)
    assert not masks[0].any() and masks[2].any() and not masks[2].all()


@pytest.mark.parametrize("p", [5, 29])
def test_plane_table_points_are_the_canonical_enumeration(p):
    tbl = PlaneTable(p)
    pts = ([(0, 0, 1)] + [(0, 1, z) for z in range(p)]
           + [(1, y, z) for y in range(p) for z in range(p)])
    assert tbl.pts.dtype == np.int64
    assert tbl.pts.tolist() == [list(pt) for pt in pts]


@pytest.mark.parametrize("p", [3, 5, 13, 29, 101, 2039])
def test_plane_table_inverses_and_roots_by_brute_force(p):
    tbl = PlaneTable(p)
    assert tbl.inv.dtype == tbl.sqrt.dtype == np.int64
    inv = tbl.inv.tolist()
    assert inv[0] == 0 and all(a * inv[a] % p == 1 for a in range(1, p))
    roots = [-1] * p
    for r in reversed(range(p)):  # the smaller root of each square is written last
        roots[r * r % p] = r
    assert tbl.sqrt.tolist() == roots


def _traced_peak(build):
    """build() and the tracemalloc peak in bytes of the allocations it made."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plane_table_holds_no_monomial_table(monkeypatch):
    # Beside its (n, 3) int64 points, a cold build allocates less than one
    # (n, 6) int64 array (48n bytes) in all, so it forms no monomial table.
    p = 307
    n = p * p + p + 1
    monkeypatch.delitem(PlaneTable._cache, p, raising=False)
    tbl, peak = _traced_peak(lambda: PlaneTable(p))
    assert tbl.pts.nbytes == 24 * n and peak < 48 * n
    assert not [name for name, v in vars(tbl).items() if np.shape(v)[:1] == (n,) and name != "pts"]


def test_root_pass_memory_is_bounded_by_its_block():
    # A fresh x root pass at p = 307 (n = 94,557 bases) keeps its per-base
    # temporaries to one block: its peak is the few arrays over all bases that
    # it returns and places, under 10 MiB.  The all-bases pass, with some twenty
    # int64 arrays over n alive at once, peaked at 18.9 MiB on this surface.
    eng = random_surface(307, 0).engine()
    rows, peak = _traced_peak(lambda: eng.fiber_pairs("x"))
    assert len(rows[0]) == 95487 and peak < 10 * 2 ** 20


@pytest.mark.parametrize("p", [3, 5, 29, 503])
def test_plane_table_keys_strictly_increase(p):
    tbl = PlaneTable(p)
    assert len(tbl.pts) == p * p + p + 1
    pts = tbl.pts
    assert np.all(np.diff((pts[:, 0] * p + pts[:, 1]) * p + pts[:, 2]) > 0)
    assert [tbl.index_of(pt) for pt in pts.tolist()] == list(range(len(pts)))
    for bad in ([0, 2, 1], [2, 0, 0], [0, 1, p], [1, -1, 3], [1, p, 0], [0, 0, 0],
                [0, 0, 2], [1, 0, p], [1, 0, -1], [0, 1, -1]):
        with pytest.raises(KeyError):
            tbl.index_of(bad)
    assert tbl.index_of((1, 2, 1)) == 1 + p + 2 * p + 1
    assert tbl.index_of((0, 0, 1)) == 0


def _sparse_surface(p, seed):
    """A random surface with most coefficients zero, so degenerate fibers are common."""
    rng = random.Random(seed)
    while True:
        a = [[rng.randrange(1, p) if rng.random() < 0.3 else 0 for _ in range(3)] for _ in range(3)]
        b = [[rng.randrange(1, p) if rng.random() < 0.15 else 0 for _ in range(6)] for _ in range(6)]
        try:
            return WehlerSurface(PrimeField(p), a, b)
        except ZeroForm:
            pass


# Small surfaces at p = 3 and p = 5, where the resultant filter tests every
# line, and where the reference kernel's interpolation grid is the whole
# affine plane and its Lagrange basis the identity.
SMALL_P_SURFACES = (
    "p 3\nL 2 2 1\nQ 0 0 0 2 2\nQ 0 1 0 0 1\nQ 0 1 1 2 2\nQ 1 2 1 2 2\n",
    "p 3\nL 0 0 2\nL 1 0 2\nL 2 1 1\nL 2 2 2\n"
    "Q 0 0 0 0 1\nQ 0 2 0 1 1\nQ 1 1 1 1 1\nQ 1 1 1 2 1\n",
    "p 5\nL 1 0 1\nQ 0 0 0 1 2\nQ 0 2 0 0 1\nQ 1 2 1 2 4\nQ 2 2 1 2 2\n",
)


def _reference_gh(lc, qc, p):
    """The six forms G_0, G_1, G_2, H_01, H_02, H_12 by `gh_formula` on int64 columns."""
    g, h = gh_formula([lc[:, n] % p for n in range(3)],
                      pair_getter([qc[:, n] % p for n in range(6)]))
    return np.stack(list(g) + list(h.values()), axis=1) % p


def _reference_lagrange(p, n):
    """The p x n Lagrange basis on the nodes 0..n-1 mod p, one factor at a time."""
    inv = PlaneTable(p).inv
    ys = np.arange(p, dtype=np.int64)
    basis = np.ones((p, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if j != i:
                basis[:, i] = basis[:, i] * (ys - j) % p * inv[(i - j) % p] % p
    return basis


def _reference_degenerate_bases(eng, side):
    """The degenerate list by interpolating a quartic over all p^2 affine bases.

    The six forms are evaluated at the p + 1 rows at infinity and on the
    n x n grid (1, y, z), y, z < n = min(p, 5).  A quartic restricted to
    x0 = 1 has degree <= 4 in y and in z, so G_0 on every affine row is
    W V W^T with V its grid values and W the p x n Lagrange basis; each
    other form narrows G_0's zeros at those rows alone.
    """
    p = eng.p
    tbl = eng.table
    n = min(p, 5)
    nodes = np.arange(n)
    grid = (1 + p + p * nodes[:, None] + nodes).ravel()
    pts = tbl.pts[np.concatenate([np.arange(p + 1), grid])]
    forms = _reference_gh(eng.line_coeffs(side, pts),
                          eng.quad_coeffs(side, tbl.monomials(pts)), p)
    at_infinity = np.flatnonzero(~forms[:p + 1].any(axis=1))
    W = _reference_lagrange(p, n)
    values = forms[p + 1:].T.reshape(6, n, n)
    ys, zs = np.nonzero((W @ values[0] % p) @ W.T % p == 0)
    for v in values[1:]:
        keep = (W[ys] @ v % p * W[zs]).sum(axis=1) % p == 0
        ys, zs = ys[keep], zs[keep]
    found = np.concatenate([at_infinity, 1 + p + p * ys + zs])
    bases = tbl.pts[found]
    line = eng.line_coeffs(side, bases).any(axis=1).tolist()
    conic = eng.quad_coeffs(side, tbl.monomials(bases)).any(axis=1).tolist()
    return [(row, "line" if l else "conic" if q else "plane")
            for row, l, q in zip(found.tolist(), line, conic)]


def _with_kinds(s, side, rows):
    """Degenerate table rows of a side as (row, kind), the kinds from `degenerate_fibers`.

    The record's bases must be exactly those rows, in the same order.
    """
    infos = degenerate_fibers(s, side)
    assert [s.engine().table.index_of(d.base.raw) for d in infos] == rows.tolist()
    return [(row, d.kind) for row, d in zip(rows.tolist(), infos)]


def test_gh_kernel_lists_the_root_pass_degenerate_fibers(w1_29):
    # The resultant filter, the interpolation kernel it replaced, the scalar
    # restriction at every base and the reference root solver agree on the
    # degenerate list, row for row and kind for kind, in table order.
    surfaces = [parse_surface(text) for text in SMALL_P_SURFACES]
    surfaces += [_sparse_surface(p, seed) for p in (5, 7, 11, 13, 17, 23) for seed in (0, 1)]
    surfaces.append(w1_29)
    surfaces += [random_surface(p, seed, mode="degenerate")
                 for p, seed in ((5, 75), (5, 93), (7, 35), (7, 40), (7, 133), (11, 133))]
    kinds = set()
    for s in surfaces:
        eng = s.engine()
        for side in ("x", "y"):
            fast = _with_kinds(s, side, eng.degenerate_bases(side))
            scalar = [(row, _fiber_restriction(s, side, base)[0])
                      for row, base in enumerate(eng.table.pts.tolist())]
            scalar = [r for r in scalar if r[1] != "finite"]
            ref = _reference_fiber_pairs(eng, side)[2]
            assert fast == scalar == ref == _reference_degenerate_bases(eng, side)
            kinds.update(kind for _, kind in fast)
    assert kinds == {"line", "conic", "plane"}
    assert [_reference_lagrange(p, p).tolist() for p in (3, 5)] == [
        np.eye(3, dtype=int).tolist(), np.eye(5, dtype=int).tolist()]


def _raw_draw(rng, p, a_kind):
    """A surface of 45 residues from rng, as random_surface draws them.

    a_kind "random" keeps L's matrix as drawn, "zero column" zeroes one of
    its columns, so that side x's G_0 and G_1 (or another pair) share a
    factor, and "rank 1" makes it an outer product, so that on either side
    all six forms share the square of a linear form.
    """
    a = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(6)] for _ in range(6)]
    if a_kind == "zero column":
        column = rng.randrange(3)
        for row in a:
            row[column] = 0
    elif a_kind == "rank 1":
        u, w = ([rng.randrange(1, p) for _ in range(3)] for _ in range(2))
        a = [[ui * wj % p for wj in w] for ui in u]
    return WehlerSurface(PrimeField(p), a, b)


def _scan_path(eng, side, monkeypatch):
    """How the resultant scan treats one side scanned alone, and its rows."""
    calls = []
    resultant = _engine._resultant

    def spy(f, g, p):
        res = resultant(f, g, p)
        calls.append((f.shape[1] - 1, bool(res.any())))
        return res

    with monkeypatch.context() as m:
        m.setattr(_engine, "_resultant", spy)
        found = eng.degenerate_bases(side)
    if not any(ok for _, ok in calls):
        return "every row", found
    if not calls[0][1]:
        return "other pair", found
    return ("degree 4" if calls[0][0] == 4 else "lower degree"), found


def _count_block_scans(monkeypatch):
    """The L rows of every stack that goes through the block kernel's scan."""
    scans = []
    scan = _engine._resultant_scan

    def counted(lrows, qrows, p):
        scans.append(lrows.tolist())
        return scan(lrows, qrows, p)

    monkeypatch.setattr(_engine, "_resultant_scan", counted)
    return scans


def test_resultant_filter_matches_the_interpolation_kernel_on_raw_draws(monkeypatch):
    # Raw draws at p = 17..29, with no mode or smoothness filter, and draws
    # whose L has a zero column or rank 1.  Besides scans where G_0 and G_1
    # give the resultant, they include scans where both vanish at (0, 0, 1),
    # so their quartics drop to degree 3 in z; scans where G_0 and G_1 share a
    # factor, so another pair is taken; and scans where every pair shares a
    # factor, so every row is tested.
    paths = {"degree 4": 0, "lower degree": 0, "other pair": 0, "every row": 0}
    found = 0
    for p in (17, 19, 23, 29):
        rng = random.Random(p)
        for a_kind in ("random",) * (150 if p == 17 else 40) + ("zero column", "rank 1") * 3:
            s = _raw_draw(rng, p, a_kind)
            eng = s.engine()
            for side in ("x", "y"):
                path, rows = _scan_path(eng, side, monkeypatch)
                fast = _with_kinds(s, side, rows)
                assert fast == _reference_degenerate_bases(eng, side)
                found += bool(fast)
                paths[path] += 1
    assert found >= 10 and min(paths.values()) >= 1


def test_resultant_scan_matches_the_exhaustive_scan():
    # On degenerate surfaces at larger p, the scan finds what all six forms
    # on every table row and the reference kernel find.
    for p, seed in ((101, 3), (101, 6), (503, 2)):
        s = random_surface(p, seed, mode="degenerate")
        eng = s.engine()
        for side in ("x", "y"):
            lrows, qrows = eng.rows(side)
            rows = _resultant_scan(lrows[None], qrows[None], p)[0]
            assert rows.tolist() == _gh_zeros(lrows, qrows, p).tolist()
            assert (_with_kinds(s, side, eng.degenerate_bases(side))
                    == _reference_degenerate_bases(eng, side))
    eng = _sparse_surface(13, 0).engine()
    assert _resultant_scan(*(r[None] for r in eng.rows("x")), 13) == [None]


def _block_scan(draws, p, monkeypatch):
    """`degenerate_rows` on one stack of the draws' sides, and the sides'
    L rows that reached `_gh_zeros`."""
    full = []
    gh_zeros = _engine._gh_zeros

    def spy(lrows, qrows, p):
        full.append(lrows.tolist())
        return gh_zeros(lrows, qrows, p)

    a, b = (np.array(m, dtype=np.int64) for m in zip(*draws))
    with monkeypatch.context() as m:
        m.setattr(_engine, "_gh_zeros", spy)
        rows = degenerate_rows(*stack_sides(a, b), p)
    return rows, full


def test_block_kernel_scans_a_mixed_stack_side_by_side(monkeypatch):
    # One stack at p = 17: an ordinary draw; a degenerate-mode draw; a draw
    # whose L has a zero column, so that side x's (G_0, G_1) resultant
    # vanishes identically and the next pair is taken, while side y's forms
    # all vanish at (0, 0, 1) and drop to degree d = 3 in z; and a draw whose
    # L has rank 1, where every pair of forms shares a factor.  Each side's
    # rows equal the reference kernel's, and only the rank-1 draw's sides go
    # to the full-table `_gh_zeros`, once each.
    p = 17
    rng = random.Random(0)
    a = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(6)] for _ in range(6)]
    zero_column = [row[:2] + [0] for row in a]
    rank_1 = [[u * w % p for w in a[1]] for u in a[0]]
    s = random_surface(p, 16, mode="degenerate")
    draws = [(a, b), (s.a, s.b), (zero_column, b), (rank_1, b)]
    surfaces = [WehlerSurface(PrimeField(p), a, b) for a, b in draws]
    engines = [s.engine() for s in surfaces]
    assert [[_scan_path(eng, side, monkeypatch)[0] for side in ("x", "y")] for eng in engines] == [
        ["degree 4", "degree 4"], ["degree 4", "degree 4"],
        ["other pair", "lower degree"], ["every row", "every row"]]
    rows, full = _block_scan(draws, p, monkeypatch)
    assert full == [engines[3].rows(side)[0].tolist() for side in ("x", "y")]
    for n, s in enumerate(surfaces):
        for k, side in enumerate(("x", "y")):
            want = _reference_degenerate_bases(s.engine(), side)
            assert rows[2 * n + k].tolist() == [row for row, _ in want]
            assert _with_kinds(s, side, rows[2 * n + k]) == want
    assert not any(map(len, rows[:2])) and any(map(len, rows[2:4]))
    assert all(map(len, rows[4:]))


def test_block_kernel_below_p17_scans_every_side_on_the_full_table(monkeypatch):
    # Below p = 17 the resultant scan cannot narrow any side: each goes
    # alone to `_gh_zeros`, and its rows equal the reference kernel's.
    p = 13
    surfaces = [_sparse_surface(p, seed) for seed in range(4)]
    surfaces += [random_surface(p, 21, mode="degenerate"), random_surface(p, 5)]
    rows, full = _block_scan([(s.a, s.b) for s in surfaces], p, monkeypatch)
    assert full == [s.engine().rows(side)[0].tolist() for s in surfaces for side in ("x", "y")]
    found = 0
    for n, s in enumerate(surfaces):
        for k, side in enumerate(("x", "y")):
            want = _reference_degenerate_bases(s.engine(), side)
            assert rows[2 * n + k].tolist() == [row for row, _ in want]
            found += bool(want)
    assert found >= 4


# -- the root pass against the solver it replaced ------------------------------


def _line_basis(lc, p):
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


def _quad_eval(qc, w, p):
    """Rows of 6-coefficient quadratics at rows of points w."""
    return sum(qc[:, n] * w[:, i] * w[:, j] for n, (i, j) in enumerate(PAIRS)) % p


def _reference_fiber_pairs(eng, side):
    """The root pass in projective coordinates, as `fiber_pairs` once was.

    Q(t0 u + t1 v) = A t0^2 + B t0 t1 + C t1^2 on a basis (u, v) of each
    line; every root is canonicalized, indexed with `index_of`, and the
    pairs are put in order by a stable sort.
    """
    p = eng.p
    tbl = eng.table
    bases = tbl.pts
    lc = eng.line_coeffs(side, bases)
    mon = tbl.monomials(tbl.pts)
    qc = eng.quad_coeffs(side, mon)
    line_ok = np.any(lc != 0, axis=1)
    idx = np.nonzero(line_ok)[0]
    u, v = _line_basis(lc[idx], p)
    qci = qc[idx]
    A = _quad_eval(qci, u, p)
    C = _quad_eval(qci, v, p)
    B = (_quad_eval(qci, (u + v) % p, p) - A - C) % p
    whole_line = (A == 0) & (B == 0) & (C == 0)
    special = np.nonzero(~line_ok)[0]
    degenerate = sorted([(row, "line") for row in idx[whole_line].tolist()]
                        + [(row, "conic" if np.any(qc[row] != 0) else "plane")
                           for row in special.tolist()])
    out_row, out_fib = [], []
    ts = np.concatenate([np.stack([np.ones(p, dtype=np.int64), np.arange(p)], axis=1),
                         np.array([[0, 1]], dtype=np.int64)])
    for pos in np.nonzero(whole_line)[0]:
        upts = (ts[:, :1] * u[pos][None, :] + ts[:, 1:] * v[pos][None, :]) % p
        out_row.append(np.full(len(upts), idx[pos]))
        out_fib.append(tbl.canonicalize(upts))
    solvable = ~whole_line
    rootA = solvable & (A == 0)
    out_row.append(idx[rootA])
    out_fib.append(tbl.canonicalize(u[rootA]))
    rootB = solvable & (A == 0) & (B != 0)
    t0 = (-C[rootB] * tbl.inv[B[rootB]]) % p
    out_row.append(idx[rootB])
    out_fib.append(tbl.canonicalize((t0[:, None] * u[rootB] + v[rootB]) % p))
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
        out_row.append(idx[qrows[sel]])
        out_fib.append(tbl.canonicalize((t0[sel][:, None] * u[qrows[sel]] + v[qrows[sel]]) % p))
    for row in special:
        sols = tbl.pts[mon @ qc[row] % p == 0]
        out_row.append(np.full(len(sols), row))
        out_fib.append(sols)
    base_rows = np.concatenate(out_row)
    fib_rows = np.array([tbl.index_of(pt) for pt in np.concatenate(out_fib).tolist()],
                        dtype=np.int64)
    x_rows, y_rows = (base_rows, fib_rows) if side == "x" else (fib_rows, base_rows)
    order = np.argsort(x_rows * len(tbl.pts) + y_rows, kind="stable")
    x_rows, y_rows = x_rows[order], y_rows[order]
    pairs = np.concatenate([tbl.pts[x_rows], tbl.pts[y_rows]], axis=1)
    return pairs, (x_rows, y_rows), degenerate


def _root_pass_surfaces(p):
    """Random surfaces of every mode, and sparse ones.

    The sparse ones' degenerate fibers include lines, conics and planes, and
    their bases include lines with c2 = 0 (some surfaces have no other kind)
    and with c2 = c1 = 0.
    """
    surfaces = [random_surface(p, seed, mode=mode)
                for seed in range(6) for mode in ("any", "degenerate", "nondegenerate")]
    return surfaces + [_sparse_surface(p, seed) for seed in range(12)]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29])
def test_root_pass_matches_the_reference_solver(p):
    charts = {"c2 != 0": 0, "c2 = 0 != c1": 0, "c2 = c1 = 0 != c0": 0, "no c2 != 0": 0}
    kinds = set()
    for s in _root_pass_surfaces(p):
        eng = s.engine()
        for side in ("x", "y"):
            rows = eng.fiber_pairs(side)
            degenerate = _with_kinds(s, side, eng.degenerate_bases(side))
            ref_pairs, ref_rows, ref_degenerate = _reference_fiber_pairs(eng, side)
            pairs = eng.table.coords(*rows)
            assert pairs.dtype == ref_pairs.dtype and np.array_equal(pairs, ref_pairs)
            for got, want in zip(rows, ref_rows):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert degenerate == ref_degenerate
            kinds.update(k for _, k in degenerate)
            c0, c1, c2 = eng.line_coeffs(side, eng.table.pts).T != 0
            charts["c2 != 0"] += np.sum(c2)
            charts["c2 = 0 != c1"] += np.sum(~c2 & c1)
            charts["c2 = c1 = 0 != c0"] += np.sum(~c2 & ~c1 & c0)
            charts["no c2 != 0"] += not c2.any()
    assert kinds == {"line", "conic", "plane"}
    assert min(charts.values()) > 0


@pytest.mark.parametrize("p", [13, 29])
def test_root_pass_is_the_same_in_any_block_size(p, monkeypatch):
    # At these primes the default block holds every base.  Smaller blocks put
    # whole-line, conic and plane bases, and bases of every chart, in
    # different blocks; both row arrays with their dtypes must not change.
    # (One-row blocks at p = 29 would add some 10 s.)
    def result(eng, side):
        return [(rows.dtype, rows.tolist()) for rows in eng.fiber_pairs(side)]

    surfaces = _root_pass_surfaces(p)
    engines = [s.engine() for s in surfaces]
    assert len(PlaneTable(p).pts) <= _engine._ROOT_BLOCK
    kinds = {d.kind for s in surfaces for side in ("x", "y") for d in degenerate_fibers(s, side)}
    assert kinds == {"line", "conic", "plane"}
    want = [result(eng, side) for eng in engines for side in ("x", "y")]
    for block in (1, 7, 97) if p == 13 else (7, 97):
        monkeypatch.setattr(_engine, "_ROOT_BLOCK", block)
        assert [result(eng, side) for eng in engines for side in ("x", "y")] == want


@pytest.mark.parametrize("p", [5, 7])
def test_root_pass_finds_every_point_of_the_surface(p):
    # Brute force over every pair of table rows with the scalar `contains`.
    F = PrimeField(p)
    rows = [tuple(F(v) for v in pt) for pt in PlaneTable(p).pts.tolist()]
    surfaces = [random_surface(p, seed, mode=mode)
                for seed in range(2) for mode in ("any", "degenerate", "nondegenerate")]
    surfaces += [_sparse_surface(p, seed) for seed in (0, 6)]
    for s in surfaces:
        naive = [[int(v) for v in a + b] for a in rows for b in rows if s.contains(a, b)]
        assert surface_pairs(s).tolist() == naive
