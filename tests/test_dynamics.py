import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from test_engine import _count_block_scans, _sparse_surface

from wehlerk3 import dynamics
from wehlerk3._engine import SurfaceEngine
from wehlerk3.dynamics import (
    PhasePoint,
    _cycles,
    asymmetric_pairing,
    build_phase_space,
    classify_cycle,
    cycle_decomposition,
    lift_pair,
    orbit,
    phase_step,
    phi_step,
    psi_step,
)
from wehlerk3.errors import NonBijective, PairingFailure
from wehlerk3.fixtures import w1_orbit_points, w1_surface
from wehlerk3.geometry import point1, point2
from wehlerk3.involution import _cor1_partner
from wehlerk3.surface import (
    degenerate_fibers,
    enumerate_points,
    pair_rows,
    random_surface,
    surface_pairs,
)


def test_phase_space_of_nondegenerate_surface_is_the_point_set():
    s = random_surface(11, seed=3)
    space = build_phase_space(s)
    assert space.size == len(surface_pairs(s))
    assert all(P.kind == "regular" for P in space.points())


def test_phase_space_counts_boundary_points(w1_29):
    space = build_phase_space(w1_29)
    pairs = surface_pairs(w1_29)
    xc = {d.base.raw for d in degenerate_fibers(w1_29, "x")}
    yc = {d.base.raw for d in degenerate_fibers(w1_29, "y")}
    on_deg = sum(
        1 for row in pairs
        if tuple(int(v) for v in row[:3]) in xc or tuple(int(v) for v in row[3:]) in yc)
    n_regular = len(pairs) - on_deg
    n_boundary = space.size - n_regular
    assert n_regular == sum(1 for P in space.points() if P.kind == "regular")
    assert n_boundary == sum(1 for P in space.points() if P.kind != "regular")
    assert not space.exceptions


def _count_engine_passes(monkeypatch):
    """Per-side call counts of the G/H kernel and the root pass."""
    calls = Counter()
    for name in ("degenerate_bases", "fiber_pairs"):
        orig = getattr(SurfaceEngine, name)

        def counted(self, side, orig=orig, name=name):
            calls[name, side] += 1
            return orig(self, side)

        monkeypatch.setattr(SurfaceEngine, name, counted)
    return calls


def test_phase_space_scans_each_side_once(monkeypatch):
    # A fresh surface: both sides' degenerate fibers come from one stack
    # through the block kernel, side x first, with no per-engine scan, and
    # only the x side runs the root pass.
    calls = _count_engine_passes(monkeypatch)
    scans = _count_block_scans(monkeypatch)
    s = w1_surface(29)
    space = build_phase_space(s)
    assert space.size > 0
    assert scans == [[s.engine().rows(side)[0].tolist() for side in ("x", "y")]]
    assert calls == {("fiber_pairs", "x"): 1}
    assert all(degenerate_fibers(s, side) for side in ("x", "y"))
    assert len(scans) == 1


def test_a_draw_that_meets_the_mode_runs_one_root_pass(monkeypatch):
    # One draw: its two sides go through the block kernel once, in one
    # stack, side x first; no per-engine scan runs, and only the x side runs
    # the root pass.
    calls = _count_engine_passes(monkeypatch)
    scans = _count_block_scans(monkeypatch)
    s = random_surface(11, seed=3, max_draws=1)
    assert scans == [[s.engine().rows(side)[0].tolist() for side in ("x", "y")]]
    assert calls == {("fiber_pairs", "x"): 1}
    assert len(surface_pairs(s)) > 0 and calls["fiber_pairs", "x"] == 1


def test_lift_pair_attaches_parameters(w1_29, F29):
    P = lift_pair(w1_29, point2(F29, -1, -1, 1), point2(F29, 1, 0, 1))
    assert P.sx == point1(F29, 2, 1)
    assert P.sy is None
    Q = lift_pair(w1_29, point2(F29, 1, 0, 1), point2(F29, -1, 2, 1))
    assert Q.kind == "regular"


def test_orbit_golden(w1_29):
    expected = w1_orbit_points(29)
    orb = orbit(w1_29, expected[0], 8)
    assert [(P.a, P.b) for P in orb] == [expected[i % 4] for i in range(9)]


def test_orbit_trivial_and_reverse(w1_29):
    expected = w1_orbit_points(29)
    start = lift_pair(w1_29, *expected[0])
    assert orbit(w1_29, start, 0) == [start]
    forward = orbit(w1_29, start, 4)
    backward = [start]
    for _ in range(4):
        backward.append(psi_step(w1_29, backward[-1]))
    assert [P.key() for P in backward] == [P.key() for P in forward[::-1]]


# The worked example's phi has order 4 on the whole phase space at every
# prime below; what causes it is not known.  Per prime, the multisets of
# symmetric and of asymmetric cycle lengths.
W1_CYCLE_PINS = {
    5: ({2: 2, 4: 4}, {4: 10}),
    7: ({2: 2, 4: 6}, {4: 16}),
    11: ({2: 2, 4: 10}, {4: 36}),
    13: ({2: 2, 4: 12}, {4: 58}),
    17: ({1: 4, 2: 2, 4: 24}, {4: 124}),
    19: ({2: 2, 4: 18}, {4: 100}),
    23: ({2: 2, 4: 22}, {4: 144}),
    29: ({2: 2, 4: 28}, {4: 250}),
    31: ({2: 2, 4: 30}, {4: 256}),
    41: ({1: 4, 2: 2, 4: 24}, {4: 604}),
    101: ({2: 2, 4: 100}, {4: 2602}),
}


@pytest.mark.parametrize("p", sorted(W1_CYCLE_PINS))
def test_w1_phi_has_order_4(p):
    # phi^4 = id and phi^2 != id on every record, chart records included;
    # fix_x = fix_y = p + 1 except at p = 17 and 41, and each side has 8, 4
    # or 2 degenerate fibers, all lines, as p is 1, 5, or 3 or 7 mod 8.
    s = w1_surface(p)
    census = cycle_decomposition(s)
    phi = census.space.perm_phi()
    phi2 = phi[phi]
    ident = np.arange(len(phi))
    assert np.array_equal(phi2[phi2], ident) and not np.array_equal(phi2, ident)
    sym, asym = W1_CYCLE_PINS[p]
    assert Counter(census.lengths(True)) == sym and Counter(census.lengths(False)) == asym
    assert set(sym) | set(asym) <= {1, 2, 4}
    fix = 30 if p in (17, 41) else p + 1
    assert (census.fix_x, census.fix_y) == (fix, fix)
    count = {1: 8, 5: 4, 3: 2, 7: 2}[p % 8]
    for side in ("x", "y"):
        assert [d.kind for d in degenerate_fibers(s, side)] == ["line"] * count


def test_phi_step_composes_the_involutions(w1_29):
    space = build_phase_space(w1_29)
    rng = random.Random(0)
    for i in rng.sample(range(space.size), 60):
        P = space.point(i)
        assert phi_step(w1_29, P) == phase_step(
            w1_29, phase_step(w1_29, P, "x"), "y")
        assert psi_step(w1_29, phi_step(w1_29, P)) == P


@pytest.mark.parametrize("seed", [None, 5, 9],
                         ids=["w1_29", "degenerate_29_5", "degenerate_29_9"])
def test_scalar_steps_agree_with_permutations(seed, w1_29):
    # Every record on both sides, so every chart row's lookup is covered.
    s = w1_29 if seed is None else random_surface(29, seed, mode="degenerate")
    space = build_phase_space(s)
    for side in ("x", "y"):
        perm = space.perm(side)
        for i in range(space.size):
            assert space.index_of(phase_step(s, space.point(i), side)) == int(perm[i])


_PARTNER_SURFACES = {
    "w1_29": lambda: w1_surface(29),
    "degenerate_29_5": lambda: random_surface(29, 5, mode="degenerate"),
    "degenerate_29_9": lambda: random_surface(29, 9, mode="degenerate"),
    "random_101_1": lambda: random_surface(101, 1),
}


@pytest.mark.parametrize("name", list(_PARTNER_SURFACES))
def test_row_sum_partners_match_the_vieta_swap(name):
    # Every plain record of both sides: perm(side) keeps its base and its code
    # on that side and moves it to the bulk G/H Vieta kernel's partner, and in
    # a sample to the scalar swap's partner.
    s = _PARTNER_SURFACES[name]()
    space = build_phase_space(s)
    eng = s.engine()
    rec = space.records
    cols = {"x": slice(0, 3), "y": slice(3, 6)}
    rng = random.Random(0)
    for side, other, code_col in (("x", "y", 6), ("y", "x", 7)):
        plain = np.flatnonzero(rec[:, code_col] == s.domain.p + 1)
        image = rec[space.perm(side)[plain]]
        assert np.array_equal(image[:, cols[side]], rec[plain, cols[side]])
        assert np.all(image[:, code_col] == s.domain.p + 1)
        got = image[:, cols[other]]
        want = eng.cor1_swap(side, rec[plain, cols[side]], rec[plain, cols[other]])
        assert len(plain) > 0 and np.array_equal(got, want)
        assert np.any(got != rec[plain, cols[other]])
        for k in rng.sample(range(len(plain)), 25):
            base, moving = (point2(s.domain, *rec[plain[k], cols[t]].tolist())
                            for t in (side, other))
            partner = point2(s.domain, *_cor1_partner(s, side, base.coords, moving.coords))
            assert partner.raw == tuple(got[k].tolist())


def _arrays(obj):
    """The numpy arrays in obj and in the dicts, lists and tuples it nests."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in _arrays(v)]
    return []


def test_census_stores_rows_and_moves_chart_records_without_the_scalar_route(monkeypatch):
    # The bulk permutations swap chart records within their line's group,
    # with no BoundaryPoint or sigma_extended; the surface cache and the phase
    # space hold one-dimensional row, code and key arrays, no coordinates.
    def scalar_route(*args, **kwargs):
        raise AssertionError("a bulk permutation took the scalar chart route")

    s = random_surface(29, 5, mode="degenerate")
    space = build_phase_space(s)
    monkeypatch.setattr(dynamics, "BoundaryPoint", scalar_route)
    monkeypatch.setattr(dynamics, "sigma_extended", scalar_route)
    cycle_decomposition(space)
    assert np.any(space._codes["x"] != space.p + 1) and np.any(space._codes["y"] != space.p + 1)
    held = _arrays(pair_rows(s)) + _arrays(vars(space))
    assert len(held) >= 12 and all(a.ndim == 1 for a in held)


def test_index_of_rejects_points_outside_the_phase_space(w1_29, F29):
    space = build_phase_space(w1_29)
    points = space.points()
    P = next(P for P in points if P.kind == "regular")
    with pytest.raises(KeyError):
        space.index_of(PhasePoint(P.a, P.b, sx=point1(F29, 1, 0)))
    a, b = point2(F29, 1, 1, 1), point2(F29, 1, 0, 0)
    assert not w1_29.contains(a.coords, b.coords)
    with pytest.raises(KeyError):
        space.index_of(PhasePoint(a, b))
    # A boundary point with a line parameter its pair does not carry.
    B = next(P for P in points if P.sy is not None)
    wrong = next(Q for Q in (PhasePoint(B.a, B.b, B.sx, point1(F29, 1, t)) for t in range(29))
                 if Q not in points)
    with pytest.raises(KeyError):
        space.index_of(wrong)


def test_census_partitions_the_space(w1_29):
    census = cycle_decomposition(w1_29)
    assert sum(c.length for c in census.cycles) == census.total == census.space.size
    census.verify()


def test_known_cycle_period_and_class(w1_29, F29):
    census = cycle_decomposition(w1_29)
    start = lift_pair(w1_29, point2(F29, -1, -1, 1), point2(F29, 1, 0, 1))
    cid = int(census.cycle_id[census.space.index_of(start)])
    rec = census.cycles[cid]
    assert rec.length == 4 and not rec.symmetric
    pts = census.cycle_points(rec)
    assert classify_cycle(w1_29, pts) == "asymmetric"
    pairing = asymmetric_pairing(census)
    partner = census.cycles[pairing[cid]]
    assert partner.length == 4
    partner_pts = census.cycle_points(partner)
    assert (point2(F29, -1, -1, 1), point2(F29, -1, 2, 1)) in {
        (P.a, P.b) for P in partner_pts}


def test_cycle_containing_fixed_point_is_symmetric():
    s = random_surface(11, seed=3)
    census = cycle_decomposition(s)
    space = census.space
    perm = space.perm("x")
    fixed = [i for i in range(space.size) if int(perm[i]) == i]
    assert fixed
    for i in fixed:
        assert census.cycles[int(census.cycle_id[i])].symmetric


def test_sigma_x_maps_cycles_to_cycles(w1_29):
    # validates the representative shortcut: the image of a cycle's point
    # set under sigma_x is exactly one cycle's point set
    census = cycle_decomposition(w1_29)
    space = census.space
    perm = space.perm("x")
    cid = census.cycle_id
    rng = random.Random(5)
    for c in rng.sample(census.cycles, 25):
        members = [i for i in range(space.size) if cid[i] == cid[c.rep_index]]
        images = {int(cid[int(perm[i])]) for i in members}
        assert len(images) == 1


def test_census_against_independent_walk():
    # second implementation: walk phi with the scalar stepper only
    s = random_surface(11, seed=7)
    census = cycle_decomposition(s)
    space = census.space
    seen = set()
    lengths = []
    for i in range(space.size):
        if i in seen:
            continue
        P = space.point(i)
        n = 0
        cur = P
        while True:
            seen.add(space.index_of(cur))
            cur = phi_step(s, cur)
            n += 1
            if cur == P:
                break
        lengths.append(n)
    assert sorted(lengths) == sorted(c.length for c in census.cycles)


def _scalar_walk(phi):
    """Reference cycle walk: (cycle_id, [(length, start)]) from each unvisited start."""
    cycle_id = np.full(len(phi), -1, dtype=np.int64)
    cycles = []
    for start in range(len(phi)):
        if cycle_id[start] >= 0:
            continue
        length = 0
        j = start
        while cycle_id[j] < 0:
            cycle_id[j] = len(cycles)
            j = int(phi[j])
            length += 1
        cycles.append((length, start))
    return cycle_id, cycles


@pytest.mark.parametrize("p,seed,mode", [(29, None, None), (29, 5, "degenerate"),
                                         (29, 9, "degenerate"), (101, 1, "any"),
                                         (199, 0, "nondegenerate")],
                         ids=["w1_29", "degenerate_29_5", "degenerate_29_9", "random_101_1",
                              "random_199_0"])
def test_census_matches_the_scalar_walk(p, seed, mode, w1_29):
    s = w1_29 if seed is None else random_surface(p, seed, mode=mode)
    census = cycle_decomposition(s)
    space = census.space
    cycle_id, cycles = _scalar_walk(space.perm_phi())
    sx = space.perm("x")
    assert np.array_equal(census.cycle_id, cycle_id)
    assert [(c.length, c.symmetric, c.rep_index) for c in census.cycles] == [
        (length, bool(cycle_id[sx[start]] == cycle_id[start]), start)
        for length, start in cycles]


def test_pointer_doubling_matches_the_scalar_walk_on_synthetic_permutations():
    # n = 1, the identity, one n-cycle in index order and one on shuffled
    # indices, then random permutations.
    rng = np.random.default_rng(3)
    order = rng.permutation(3000)
    shuffled_cycle = np.empty(3000, dtype=np.int64)
    shuffled_cycle[order] = np.roll(order, -1)
    perms = [np.zeros(1, dtype=np.int64), np.arange(50), np.roll(np.arange(3000), -1),
             shuffled_cycle]
    perms += [rng.permutation(n) for n in (2, 17, 4096, 20000)]
    longest = 0
    for phi in perms:
        cycle_id, reps, lengths = _cycles(phi)
        ref_id, ref_cycles = _scalar_walk(phi)
        assert np.array_equal(cycle_id, ref_id)
        assert list(zip(lengths.tolist(), reps.tolist())) == ref_cycles
        longest = max(longest, lengths.max())
    assert longest > 2 ** 10


def _marker_free_short_cycles(n, k, rng):
    """The markers (every k-th index) on one cycle, every other index on 3-cycles."""
    phi = np.empty(n, dtype=np.int64)
    markers = rng.permutation(np.arange(0, n, k))
    phi[markers] = np.roll(markers, -1)
    others = rng.permutation(np.flatnonzero(np.arange(n) % k))
    others = others[:len(others) // 3 * 3].reshape(-1, 3)
    phi[others] = np.roll(others, -1, axis=1)
    left = np.setdiff1d(np.flatnonzero(np.arange(n) % k), others)
    phi[left] = left
    return phi


def test_marker_contraction_matches_the_scalar_walk_on_synthetic_permutations():
    # n >= 2^16, so every k-th index is a marker with k > 1: the identity
    # (every point but the markers left to the doubling), one n-cycle in
    # index order and one on shuffled indices, short cycles that avoid every
    # marker, one cycle whose markers are all but one at its end (walkers
    # stop at the step limit), and a random permutation.
    n = 2 ** 16
    k = dynamics._marker_gap(n)
    assert k > 1
    rng = np.random.default_rng(5)
    order = rng.permutation(n)
    shuffled_cycle = np.empty(n, dtype=np.int64)
    shuffled_cycle[order] = np.roll(order, -1)
    markers = np.arange(0, n, k)
    late = np.concatenate([[0], np.flatnonzero(np.arange(n) % k), markers[1:]])
    late_markers = np.empty(n, dtype=np.int64)
    late_markers[late] = np.roll(late, -1)
    perms = [np.arange(n), np.roll(np.arange(n), -1), shuffled_cycle,
             _marker_free_short_cycles(n, k, rng), late_markers, rng.permutation(n + 7)]
    for phi in perms:
        cycle_id, reps, lengths = _cycles(phi)
        ref_id, ref_cycles = _scalar_walk(phi)
        assert np.array_equal(cycle_id, ref_id)
        assert list(zip(lengths.tolist(), reps.tolist())) == ref_cycles
    short = _cycles(perms[3])[2]
    assert np.count_nonzero(short == 3) > n // 5


def test_non_bijective_phi_is_rejected():
    for phi in (np.array([0, 0, 1]), np.array([1, 1]), np.array([2, 0, 0])):
        with pytest.raises(NonBijective, match="phi is not a bijection"):
            _cycles(phi)


REGULAR, X_ONLY, Y_ONLY, BOTH = (False, False), (True, False), (False, True), (True, True)
LEX_ORDER_SURFACES = {
    "w1_29": (lambda: w1_surface(29), {REGULAR, X_ONLY, Y_ONLY, BOTH}),
    "degenerate_29_0": (lambda: random_surface(29, 0, mode="degenerate"), {REGULAR, X_ONLY}),
    "degenerate_29_2": (lambda: random_surface(29, 2, mode="degenerate"), {REGULAR, Y_ONLY}),
    "sparse_13_1": (lambda: _sparse_surface(13, 1), {REGULAR, X_ONLY, Y_ONLY}),
}


@pytest.mark.parametrize("name", LEX_ORDER_SURFACES)
def test_records_and_pairs_are_in_lex_order(name):
    # Records carry a line parameter on neither side, the x side, the y side
    # or both; on sparse_13_1 some records share (a, b, sx) and differ in sy.
    make, kinds = LEX_ORDER_SURFACES[name]
    s = make()
    space = build_phase_space(s)
    rec = space.records
    none = space.p + 1
    assert {(sx != none, sy != none) for sx, sy in rec[:, 6:].tolist()} == kinds
    shared_x = np.all(rec[1:, :7] == rec[:-1, :7], axis=1).any()
    assert shared_x == (name == "sparse_13_1")
    for arr in (rec, surface_pairs(s), s.engine().analyze("y")[0]):
        assert np.array_equal(np.lexsort(arr.T[::-1]), np.arange(len(arr)))


def test_reversibility_census_phi_equals_psi(w1_29):
    census = cycle_decomposition(w1_29)
    space = census.space
    psi = space.perm("x")[space.perm("y")]
    seen = [False] * space.size
    lengths = []
    for i in range(space.size):
        if seen[i]:
            continue
        n = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = int(psi[j])
            n += 1
        lengths.append(n)
    assert Counter(lengths) == Counter(c.length for c in census.cycles)


@pytest.mark.parametrize("seed", [5, 9])
def test_degenerate_census_identities(seed):
    s = random_surface(29, seed=seed, mode="degenerate")
    census = cycle_decomposition(s)
    census.verify()
    assert census.symmetric_count == (census.fix_x + census.fix_y) // 2
    pairing = asymmetric_pairing(census)
    assert len(pairing) == census.asymmetric_count
    assert all(pairing[pairing[i]] == i for i in pairing)


def _pencil_parameter(s, records):
    """t = [A b], the image of b under L's matrix as a point of the line im A.

    Given as a plane-table row, and -1 where A b = 0 (b is a y-side center).
    """
    p = s.p
    tbl = s.engine().table
    image = records[:, 3:6] @ s.engine().amat.T % p
    defined = image.any(axis=1)
    t = np.full(len(records), -1)
    t[defined] = [tbl.index_of(pt) for pt in tbl.canonicalize(image[defined]).tolist()]
    return t


@pytest.mark.parametrize("seed", [5, 32])
def test_pencil_parameter_is_invariant_when_det_a_vanishes(seed):
    # det(a) = 0 puts a conic center on each side, and L = l1(x) m1(y) +
    # l2(x) m2(y) makes t = [A y] = [l1(x) : l2(x)] depend on y alone and on
    # x alone on the surface, so sigma_y and sigma_x both keep it.
    s = random_surface(29, seed, mode="degenerate")
    assert round(np.linalg.det(s.engine().amat.astype(float))) % 29 == 0
    assert "conic" in {d.kind for d in degenerate_fibers(s, "x")}
    assert "conic" in {d.kind for d in degenerate_fibers(s, "y")}
    census = cycle_decomposition(s)
    t = _pencil_parameter(s, census.space.records)
    phi = census.space.perm_phi()
    checked = (t >= 0) & (t[phi] >= 0)
    assert checked.mean() > 0.9
    assert np.array_equal(t[phi][checked], t[checked])
    # Every cycle lies in one fiber of t.
    per_cycle = {}
    for c, tv in zip(census.cycle_id[t >= 0].tolist(), t[t >= 0].tolist()):
        per_cycle.setdefault(c, set()).add(tv)
    assert len(per_cycle) > 0.9 * len(census.cycles)
    assert all(len(ts) == 1 for ts in per_cycle.values())


def test_pencil_parameter_moves_when_det_a_does_not_vanish():
    s = random_surface(29, 0, mode="degenerate")
    assert round(np.linalg.det(s.engine().amat.astype(float))) % 29 != 0
    space = build_phase_space(s)
    t = _pencil_parameter(s, space.records)
    assert np.mean(t[space.perm_phi()] == t) < 0.2


# Accepted degenerate surfaces whose blow-up charts leave part of a degenerate
# fiber without boundary points, so a census finds sigma not total.  strict
# makes a fix (or a new rejection in random_surface) show up as XPASS.
@pytest.mark.xfail(strict=True, raises=NonBijective)
@pytest.mark.parametrize("p,seed", [(5, 75), (5, 93), (7, 35), (7, 40), (7, 133), (11, 133),
                                    (19, 84)])
def test_known_small_prime_charts_are_not_bijective(p, seed):
    cycle_decomposition(random_surface(p, seed, mode="degenerate"))


def test_failure_notes_name_the_missing_image(monkeypatch):
    space = build_phase_space(random_surface(5, 75, mode="degenerate"))
    space.perm("x")
    assert not space.exceptions
    with pytest.raises(NonBijective):
        space.perm("y")
    assert space.exceptions[0] == (
        "sigma_y fiber over (1, 0, 4): points=2, records=1, distinct rows=1, smallest record=2")

    # The notes and permutations do not depend on the order of tied keys:
    # sparse_13_1 has fibers holding two records, valid and not.
    def outcomes(argsort):
        monkeypatch.setattr(np, "argsort", argsort)
        space = dynamics.PhaseSpace(_sparse_surface(13, 1))
        return [_perm_outcome(space, side) for side in ("x", "y")], space.exceptions

    argsort = np.argsort
    forward = outcomes(lambda a: argsort(a, kind="stable"))
    backward = outcomes(lambda a: len(a) - 1 - argsort(a[::-1], kind="stable"))
    assert forward == backward
    assert any("records=2, distinct rows=1" in note for note in forward[1])
    monkeypatch.undo()

    # Two records at one point of a two-point fiber are not swapped.
    space = dynamics.PhaseSpace(w1_surface(29))
    i, j = next((i, int(j)) for i, j in enumerate(space.perm("x")) if j != i)
    space = dynamics.PhaseSpace(w1_surface(29))
    space._ib[j] = space._ib[i]
    with pytest.raises(NonBijective):
        space.perm("x")
    at = tuple(int(v) for v in space.records[i, :3])
    assert space.exceptions == [f"sigma_x fiber over {at}: points=2, records=2, "
                                f"distinct rows=1, smallest record={min(i, j)}"]


def test_a_failed_permutation_raises_on_every_call():
    # The failed side-y permutation is not cached with its -1 entries: every
    # later call raises the same NonBijective and adds no note.
    s = random_surface(5, 75, mode="degenerate")
    errors = []
    for _ in range(2):
        with pytest.raises(NonBijective) as exc:
            cycle_decomposition(s)
        errors.append(str(exc.value))
    space = build_phase_space(s)
    notes = list(space.exceptions)
    with pytest.raises(NonBijective) as exc:
        space.perm("y")
    errors.append(str(exc.value))
    assert errors == [errors[0]] * 3 and errors[0].startswith("sigma_y is not total")
    assert space.exceptions == notes and len(set(notes)) == len(notes) > 0


def test_a_failed_permutation_quotes_only_its_own_notes():
    # sparse_13_1's phase space notes ambiguous both-side boundary points, and
    # both permutations fail; each error quotes the first notes of its side.
    space = dynamics.PhaseSpace(_sparse_surface(13, 1))
    assert space.exceptions
    assert all(note.startswith("ambiguous both-side") for note in space.exceptions)
    for side in ("x", "y"):
        start = len(space.exceptions)
        with pytest.raises(NonBijective) as exc:
            space.perm(side)
        own = space.exceptions[start:]
        assert own and all(note.startswith(f"sigma_{side} fiber") for note in own)
        assert str(exc.value) == (f"sigma_{side} is not total on the phase space; "
                                  f"first notes: {own[:3]}")


# Per surface: the phase space size and the sha256 of its records, both
# permutations (or the NonBijective text a permutation raises) and every
# exception note.  degenerate_5_93, sparse_13_1 and the sparse p = 5
# surfaces reach the "ambiguous both-side boundary point" note.
PHASE_SPACE_SURFACES = {
    "w1_29": lambda: w1_surface(29),
    **{f"degenerate_29_{sd}": (lambda sd=sd: random_surface(29, sd, mode="degenerate"))
       for sd in (0, 2, 5, 9)},
    "sparse_13_1": lambda: _sparse_surface(13, 1),
    "random_101_1": lambda: random_surface(101, 1),
    **{f"degenerate_{p}_{sd}": (lambda p=p, sd=sd: random_surface(p, sd, mode="degenerate"))
       for p, sd in ((5, 75), (5, 93), (7, 35), (7, 40), (7, 133), (11, 133))},
    **{f"sparse_5_{sd}": (lambda sd=sd: _sparse_surface(5, sd)) for sd in range(5)},
}
PHASE_SPACE_PINS = [
    ("w1_29", 1116, "ef3303f06297e6ea52da19dde3e056d9d2ba75936cb0e61ce7432d50a7874ab7"),
    ("degenerate_29_0", 932, "4ca91b5c1aed5af8f2522f4709b304020c624e1895836b131a29d6051c5202b4"),
    ("degenerate_29_2", 991, "3d062b6c03093320d8de29eaf15d7f0e4d990dcb7a7bb090c46b0732887b8bd4"),
    ("degenerate_29_5", 923, "2d52511ce7619ee32ad128c05a6cee2b244566adaa6c8ea97388c8e21806316c"),
    ("degenerate_29_9", 956, "f2aa9e22a3b4aa38d82ab48663846ea25952942b5d0a7dc331424df9543ff662"),
    ("sparse_13_1", 219, "f42a423c84983ed938ada99c4663ad5453c09e58a7c762e395f91eadb04e3456"),
    ("random_101_1", 10452, "f72debccf512df481415db4e0755dc76b85cbb4fff7c25c0d4110b31af3ac46f"),
    ("degenerate_5_75", 30, "ce3deeaf4d503e751912f117b44a3f9f29abd53b4ccae5147459fa8fd64a084a"),
    ("degenerate_5_93", 40, "00fcb8f3e354c972b32ffad2b37c3d067e1039de46b1a33da7a967ff6200f8d3"),
    ("degenerate_7_35", 54, "93f2de17bd6eb9395ab68ebd6edf21c68faf7d1f26a1cf7690dfd95cdceda73f"),
    ("degenerate_7_40", 66, "e1701747cd0ff9051af52b5e141ef4cd86ca1dba16e6f208e517b02257206e41"),
    ("degenerate_7_133", 64, "c8a2527ef6b0cc007b53e9ccc123c210d4b66347b08ef786f7a663d627af5cc8"),
    ("degenerate_11_133", 154, "22b3d108b1a27d5dde7e9b475f39600708ec0630b244f3b226f63d925e107b13"),
    ("sparse_5_0", 0, "ef3c91fa9407820cdd1b77e40d9ff193ee83509ba2dd831b1e90fa3c5f8e20b4"),
    ("sparse_5_1", 36, "03c46b02d6b32d7f44feb303ea099c62b501b9d3a9418a6c28df2dc074d09797"),
    ("sparse_5_2", 0, "98c5ce65c3d37545dab8dcfc01790554ca763ab8489500ed7075573158e2e9dc"),
    ("sparse_5_3", 1, "f2b51b3d2423a500a53635538dd7e023252a6cc0a67d2c3a15f332d5d199f584"),
    ("sparse_5_4", 33, "a9747c015a8bbaeef5a353ecdffda651b5db5cdf0cf6b39db54907170c3ab77b"),
]


def _perm_outcome(space, side):
    try:
        return space.perm(side).tolist()
    except NonBijective as exc:
        return str(exc)


@pytest.mark.parametrize("name,size,digest", PHASE_SPACE_PINS)
def test_phase_space_outputs_pinned(name, size, digest):
    space = build_phase_space(PHASE_SPACE_SURFACES[name]())
    out = [space.records.tolist(), _perm_outcome(space, "x"), _perm_outcome(space, "y"),
           space.exceptions]
    assert space.size == size
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest


def test_boundary_phase_points_round_trip(w1_29):
    space = build_phase_space(w1_29)
    for P in space.points():
        if P.kind == "regular":
            continue
        assert space.point(space.index_of(P)) == P
        # boundary points survive a full phi loop of their cycle
        assert w1_29.contains(P.a.coords, P.b.coords)


@pytest.mark.parametrize("seed", [None, 5, 8])
def test_points_are_built_from_table_rows_as_by_point2(seed, w1_29):
    s = w1_29 if seed is None else random_surface(29, seed, mode="degenerate")
    dom = s.domain
    space = build_phase_space(s)

    def param(code):
        return None if code == 30 else point1(dom, 0, 1) if code == 29 else point1(dom, 1, code)

    want = [PhasePoint(point2(dom, *r[:3]), point2(dom, *r[3:6]), param(r[6]), param(r[7]))
            for r in space.records.tolist()]
    points = space.points()
    assert points == want
    assert [P.key() for P in points] == [P.key() for P in want]
    assert any(P.kind == "boundary" for P in points)
    assert [space.point(i) for i in range(0, space.size, 37)] == want[::37]
    assert enumerate_points(s) == [(point2(dom, *r[:3]), point2(dom, *r[3:]))
                                   for r in surface_pairs(s).tolist()]
    # One point object per distinct plane-table row.
    assert len({id(P.a) for P in points}) == len({P.a for P in points})


def test_census_serialization(w1_29):
    census = cycle_decomposition(w1_29)
    rows = census.to_csv_rows()
    assert rows[0] == "length,symmetric,count"
    total = 0
    for row in rows[1:]:
        length, sym, count = row.split(",")
        total += int(length) * int(count)
    assert total == census.total
    d = census.to_json_dict()
    assert d["total"] == census.total
    assert all(c["interleaved_length"] == 2 * c["period"] for c in d["cycles"])


def test_empty_census_histogram_raises():
    from wehlerk3.dynamics import CycleCensus
    from wehlerk3.errors import EmptyPhaseSpace
    empty = CycleCensus(space=None, cycles=[], fix_x=0, fix_y=0, total=0)
    with pytest.raises(EmptyPhaseSpace):
        empty.period_histogram()
