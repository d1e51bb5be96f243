import itertools
import random

import numpy as np
import pytest

from wehlerk3._engine import (
    _ENUM_P_CAP,
    PlaneTable,
    gh_eval,
    gh_formula,
    pair_getter,
    phase_key,
)
from wehlerk3.errors import ZeroForm
from wehlerk3.field import PrimeField
from wehlerk3.surface import (
    WehlerSurface,
    _fiber_restriction,
    gh_system,
    gh_values,
    random_surface,
)

H_KEYS = ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize("seed,mode", [(3, "any"), (5, "degenerate")])
def test_gh_bulk_scalar_and_symbolic_agree_at_every_base(seed, mode):
    p = 29
    s = random_surface(p, seed=seed, mode=mode)
    eng = s.engine()
    bases = eng.table.pts
    for side in ("x", "y"):
        G, H = gh_eval(eng.line_coeffs(side, bases), eng.quad_coeffs(side, eng.table.mon6), p)
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
    # all-(p - 1) row: the int64 kernel must match Python-int arithmetic.
    p = 2039
    assert p <= _ENUM_P_CAP and 3 * _ENUM_P_CAP ** 3 < 2 ** 35
    rows = np.array(list(itertools.product((0, p - 1), repeat=9)), dtype=np.int64)
    G, H = gh_eval(rows[:, :3], rows[:, 3:], p)
    for n, row in enumerate(rows.tolist()):
        g, h = gh_formula(row[:3], pair_getter(row[3:]))
        assert G[n].tolist() == [v % p for v in g]
        assert H[n].tolist() == [h[ij] % p for ij in H_KEYS]


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


@pytest.mark.parametrize("p", [29, 503])
def test_plane_table_keys_strictly_increase(p):
    tbl = PlaneTable(p)
    assert len(tbl.pts) == p * p + p + 1
    assert np.all(np.diff(tbl.pack(tbl.pts)) > 0)
    assert np.array_equal(tbl.index_of(tbl.pts), np.arange(len(tbl.pts)))
    for bad in ([0, 2, 1], [2, 0, 0], [0, 1, p], [1, -1, 3], [1, p, 0], [0, 0, 0]):
        with pytest.raises(KeyError):
            tbl.index_of(np.array([[1, 0, 0], bad]))


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


def test_fiber_quadratic_pass_lists_the_root_pass_degenerate_fibers(w1_29):
    # The root-free pass, the root pass and the scalar restriction at every
    # base agree on the degenerate list, row for row and kind for kind: the
    # "line" bases in table order, then the "conic" and "plane" ones.
    surfaces = [_sparse_surface(p, seed) for p in (5, 7, 11, 13, 17, 23) for seed in (0, 1)]
    surfaces.append(w1_29)
    surfaces += [random_surface(p, seed, mode="degenerate")
                 for p, seed in ((5, 75), (5, 93), (7, 35), (7, 40), (7, 133), (11, 133))]
    kinds = set()
    for s in surfaces:
        eng = s.engine()
        for side in ("x", "y"):
            fast = [(base.tolist(), kind) for base, kind in eng.fiber_quadratics(side).degenerate]
            full = [(base.tolist(), kind) for base, kind in eng.analyze(side)[1]]
            scalar = [(base, _fiber_restriction(s, side, base)[0]) for base in eng.table.pts.tolist()]
            scalar = ([r for r in scalar if r[1] == "line"]
                      + [r for r in scalar if r[1] in ("conic", "plane")])
            assert fast == full == scalar
            kinds.update(kind for _, kind in fast)
    assert kinds == {"line", "conic", "plane"}
