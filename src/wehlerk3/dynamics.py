"""The finite phase space and the cycle structure of phi = sigma_y o sigma_x.

Phase points are surface points with their blow-up line parameters attached:
a point over a degenerate base of either projection carries the parameter of
the exceptional line it sits on (one per degenerate side).  Points of
positive-dimensional fibers are replaced by the per-line boundary points of
the corresponding chart, so both involutions act everywhere and phi becomes
a bijection of a finite set.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ._engine import fiber_partner_rows, phase_key
from .blowup import BoundaryPoint, chart_for, exceptional_points, resolve_s, sigma_extended
from .errors import NonBijective, PairingFailure
from .geometry import ProjectivePoint1, ProjectivePoint2, point1, point2
from .involution import _cor1_partner
from .surface import WehlerSurface, degenerate_fibers, pair_rows, surface_pairs

__all__ = [
    "PhasePoint",
    "PhaseSpace",
    "CycleCensus",
    "CycleRecord",
    "build_phase_space",
    "cycle_decomposition",
    "classify_cycle",
    "asymmetric_pairing",
    "orbit",
    "lift_pair",
    "phase_step",
    "phi_step",
    "psi_step",
]


@dataclass(frozen=True)
class PhasePoint:
    """A surface point plus the line parameters of any degenerate bases."""

    a: ProjectivePoint2
    b: ProjectivePoint2
    sx: ProjectivePoint1 | None = None
    sy: ProjectivePoint1 | None = None

    @property
    def kind(self) -> str:
        return "regular" if self.sx is None and self.sy is None else "boundary"

    @property
    def pair(self):
        return self.a, self.b

    def key(self):
        return (
            self.a.raw,
            self.b.raw,
            None if self.sx is None else self.sx.raw,
            None if self.sy is None else self.sy.raw,
        )

    def __repr__(self):
        extra = ""
        if self.sx is not None:
            extra += f", sx={self.sx}"
        if self.sy is not None:
            extra += f", sy={self.sy}"
        return f"PhasePoint({self.a}, {self.b}{extra})"


class _Context:
    """Degenerate centers of one surface, shared by all steps."""

    def __init__(self, s: WehlerSurface):
        self.centers = {}
        for side in ("x", "y"):
            infos = degenerate_fibers(s, side)
            self.centers[side] = {info.base.raw: info for info in infos}

    def is_center(self, side: str, raw: tuple) -> bool:
        return raw in self.centers[side]


def _context(s: WehlerSurface) -> _Context:
    return s.cached(("dyn_ctx",), lambda: _Context(s))


# -- standalone scalar stepping (orbits, public phi/psi) -------------------------


def lift_pair(s: WehlerSurface, a, b) -> PhasePoint:
    """Attach line parameters to a raw surface point.

    Raises NoRationalS/AmbiguousS when a degenerate side has no unique
    parameter; those points are outside the phase space.
    """
    if not isinstance(a, ProjectivePoint2):
        a = point2(s.domain, *a)
    if not isinstance(b, ProjectivePoint2):
        b = point2(s.domain, *b)
    ctx = _context(s)
    sx = sy = None
    if ctx.is_center("x", a.raw):
        sx = resolve_s(chart_for(s, "x", a), b)
    if ctx.is_center("y", b.raw):
        sy = resolve_s(chart_for(s, "y", b), a)
    return PhasePoint(a, b, sx, sy)


def phase_step(s: WehlerSurface, P: PhasePoint, side: str) -> PhasePoint:
    """Apply sigma_side to a phase point, routing through charts as needed."""
    ctx = _context(s)
    if side == "x":
        if P.sx is not None:
            bp = BoundaryPoint("x", P.a, P.sx, P.b)
            moved = sigma_extended(chart_for(s, "x", P.a), bp)
            return _reattach(s, ctx, P.a, moved.moving, kept=P.sx,
                             old_moving=P.b, old_other=P.sy, changed="b")
        partner = _cor1_partner(s, "x", P.a.coords, P.b.coords)
        new_b = point2(s.domain, *partner)
        return _reattach(s, ctx, P.a, new_b, kept=None,
                         old_moving=P.b, old_other=P.sy, changed="b")
    if side == "y":
        if P.sy is not None:
            bp = BoundaryPoint("y", P.b, P.sy, P.a)
            moved = sigma_extended(chart_for(s, "y", P.b), bp)
            return _reattach(s, ctx, moved.moving, P.b, kept=P.sy,
                             old_moving=P.a, old_other=P.sx, changed="a")
        partner = _cor1_partner(s, "y", P.b.coords, P.a.coords)
        new_a = point2(s.domain, *partner)
        return _reattach(s, ctx, new_a, P.b, kept=None,
                         old_moving=P.a, old_other=P.sx, changed="a")
    raise ValueError(f"side must be 'x' or 'y', got {side!r}")


def _reattach(s, ctx, a, b, kept, old_moving, old_other, changed):
    """Rebuild the parameter fields after one coordinate moved.

    `kept` is the stepped side's own parameter (unchanged by the swap);
    the moved coordinate's parameter is rederived unless the swap was a
    fixed point, in which case the old value survives.
    """
    if changed == "b":
        if b == old_moving:
            new_sy = old_other
        elif ctx.is_center("y", b.raw):
            new_sy = resolve_s(chart_for(s, "y", b), a)
        else:
            new_sy = None
        return PhasePoint(a, b, kept, new_sy)
    if a == old_moving:
        new_sx = old_other
    elif ctx.is_center("x", a.raw):
        new_sx = resolve_s(chart_for(s, "x", a), b)
    else:
        new_sx = None
    return PhasePoint(a, b, new_sx, kept)


def phi_step(s: WehlerSurface, P: PhasePoint) -> PhasePoint:
    """phi = sigma_y o sigma_x."""
    return phase_step(s, phase_step(s, P, "x"), "y")


def psi_step(s: WehlerSurface, P: PhasePoint) -> PhasePoint:
    """psi = sigma_x o sigma_y, the inverse of phi."""
    return phase_step(s, phase_step(s, P, "y"), "x")


def orbit(s: WehlerSurface, P, n: int) -> list[PhasePoint]:
    """[P, phi P, ..., phi^n P], routing through charts where bases degenerate."""
    if not isinstance(P, PhasePoint):
        P = lift_pair(s, *P)
    out = [P]
    for _ in range(n):
        out.append(phi_step(s, out[-1]))
    return out


# -- the materialized phase space -------------------------------------------------

# Record columns: a (3), b (3), then the sx and sy codes.
_CODE_COL = {"x": 6, "y": 7}


class PhaseSpace:
    """All phase points of a surface with the two involution permutations."""

    def __init__(self, s: WehlerSurface):
        self.surface = s
        self.p = s.domain.p
        # The x root pass first: it leaves the x degenerate list that _context
        # reads, so side x is not scanned a second time.
        surface_pairs(s)
        self.ctx = _context(s)
        self.exceptions: list[str] = []
        self._build_points()
        self._perms: dict[str, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def _build_points(self):
        s = self.surface
        p = self.p
        tbl = s.engine().table
        xc = self.ctx.centers["x"]
        yc = self.ctx.centers["y"]
        pairs = surface_pairs(s)
        pa, pb = pair_rows(s)
        # Degenerate centers marked over the plane-table rows.
        on_center = []
        for centers, rows in ((xc, pa), (yc, pb)):
            is_center = np.zeros(len(tbl.pts), dtype=bool)
            is_center[tbl.index_of(np.array(list(centers), dtype=np.int64).reshape(-1, 3))] = True
            on_center.append(is_center[rows])
        regular = ~on_center[0] & ~on_center[1]

        # Boundary atoms from every chart on both sides.
        x_atoms: dict[tuple, list[tuple]] = {}
        y_atoms: dict[tuple, list[tuple]] = {}
        for raw in sorted(xc):
            for bp in exceptional_points(chart_for(s, "x", point2(s.domain, *raw))):
                key = (raw, bp.moving.raw)
                x_atoms.setdefault(key, []).append(bp.s.raw)
        for raw in sorted(yc):
            for bp in exceptional_points(chart_for(s, "y", point2(s.domain, *raw))):
                key = (bp.moving.raw, raw)
                y_atoms.setdefault(key, []).append(bp.s.raw)

        none_code = p + 1
        records: list[tuple] = []
        for (a_raw, b_raw), sxs in x_atoms.items():
            if b_raw in yc:
                continue  # handled in the merge below
            for sx in sxs:
                records.append(a_raw + b_raw + (self._scode(sx), none_code))
        for (a_raw, b_raw), sys_ in y_atoms.items():
            if a_raw in xc:
                continue
            for sy in sys_:
                records.append(a_raw + b_raw + (none_code, self._scode(sy)))
        both_keys = {k for k in x_atoms if k[1] in yc} | {
            k for k in y_atoms if k[0] in xc}
        for key in sorted(both_keys):
            xs = x_atoms.get(key, [])
            ys = y_atoms.get(key, [])
            if len(xs) == 1 and len(ys) == 1:
                records.append(key[0] + key[1] + (self._scode(xs[0]), self._scode(ys[0])))
            else:
                self.exceptions.append(
                    f"ambiguous both-side boundary point {key}: "
                    f"{len(xs)} x-lines, {len(ys)} y-lines")

        boundary = np.array(records, dtype=np.int64).reshape(-1, 8)
        allrec = np.concatenate([
            np.pad(pairs[regular], ((0, 0), (0, 2)), constant_values=none_code),
            boundary,
        ])
        # Plane-table rows are in lex order, so (row of a, row of b, sx code)
        # orders like (a, b, sx) and one key replaces seven sort columns.
        ia = np.concatenate([pa[regular], tbl.index_of(boundary[:, :3])])
        ib = np.concatenate([pb[regular], tbl.index_of(boundary[:, 3:6])])
        xkey = phase_key(ia, ib, allrec[:, 6], p)
        order = np.lexsort((allrec[:, 7], xkey))
        self.records = allrec[order]
        self._ia, self._ib = ia[order], ib[order]
        # The x key follows the record order by construction; the y key does
        # only because no (a, b) carries both several sx and several sy.
        self._keys = {"x": xkey[order],
                      "y": phase_key(self._ia, self._ib, self.records[:, 7], p)}
        for side, keys in self._keys.items():
            if np.any(keys[1:] < keys[:-1]):
                raise NonBijective(f"phase records are not sorted by their {side} key")

    def _scode(self, s_raw: tuple) -> int:
        s0, s1 = int(s_raw[0]), int(s_raw[1])
        return self.p if s0 == 0 else s1

    def _sdecode(self, code: int):
        if code == self.p + 1:
            return None
        if code == self.p:
            return point1(self.surface.domain, 0, 1)
        return point1(self.surface.domain, 1, code)

    # -- point access ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.records)

    def point(self, i: int) -> PhasePoint:
        row = self.records[i]
        dom = self.surface.domain
        return PhasePoint(
            point2(dom, *[int(v) for v in row[:3]]),
            point2(dom, *[int(v) for v in row[3:6]]),
            self._sdecode(int(row[6])),
            self._sdecode(int(row[7])),
        )

    def points(self) -> list[PhasePoint]:
        return [self.point(i) for i in range(self.size)]

    def _key(self, a: np.ndarray, b: np.ndarray, code) -> np.ndarray:
        tbl = self.surface.engine().table
        return phase_key(tbl.index_of(a), tbl.index_of(b), code, self.p)

    def _find(self, side: str, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First record whose `side` key equals each key, and how many do.

        One left search: a key occurs exactly once iff it sits at `first` and
        not at `first + 1`.  Only the keys that occur more often are counted
        by a second search.  The left search runs on the keys in sorted order
        and is scattered back, so its reads of the stored keys move forwards
        instead of jumping across them.  Keys that already come in order at
        every 64th one, as side x's do (an image stays over its own base),
        are searched as given: sorting them would cost as much as the search.
        """
        sorted_keys = self._keys[side]
        n = len(sorted_keys)
        every = keys[::64]
        order = np.argsort(keys) if np.any(every[1:] < every[:-1]) else slice(None)
        first = np.empty(len(keys), dtype=np.intp)
        first[order] = np.searchsorted(sorted_keys, keys[order])
        count = np.zeros(len(keys), dtype=np.int64)
        hit = np.flatnonzero(first < n)
        hit = hit[sorted_keys[first[hit]] == keys[hit]]
        count[hit] = 1
        more = hit[first[hit] + 1 < n]
        more = more[sorted_keys[first[more] + 1] == keys[more]]
        count[more] = np.searchsorted(sorted_keys, keys[more], side="right") - first[more]
        return first, count

    def index_of(self, P: PhasePoint) -> int:
        none_code = self.p + 1
        sx, sy = (none_code if t is None else self._scode(t.raw) for t in (P.sx, P.sy))
        first, count = self._find("x", self._key(np.array([P.a.raw]), np.array([P.b.raw]), sx))
        # Records sharing an x key differ only in sy.
        group = self.records[first[0]:first[0] + count[0], _CODE_COL["y"]]
        hit = first[0] + np.flatnonzero(group == sy)
        if len(hit) != 1:
            raise KeyError(f"{P} is not in the phase space")
        return int(hit[0])

    # -- the involution permutations --------------------------------------------

    def perm(self, side: str) -> np.ndarray:
        if side not in self._perms:
            self._perms[side] = self._build_perm(side)
            self._check_involution(side)
        return self._perms[side]

    def _build_perm(self, side: str) -> np.ndarray:
        """Swap the moving coordinate of every record, then look all images up.

        The swap side's own parameter is kept, so the image is the unique
        record with the moved (a, b) and the same code on that side.  A plain
        record (no parameter on the swap side) sits over a base that is not
        degenerate, whose fiber holds one or two rational points, all of them
        in `surface_pairs`.  With S[base] the sum of the moving rows over that
        fiber, doubled where it is a single double root, the partner's row is
        S[base] - row (`fiber_partner_rows`): the other root of a two-point
        fiber, or the point itself at a double root.  Chart records move by
        `sigma_extended` on their blow-up chart.
        """
        s = self.surface
        tbl = s.engine().table
        rec = self.records
        code = rec[:, _CODE_COL[side]]
        plain = code == self.p + 1
        pa, pb = pair_rows(s)
        if side == "x":
            base, own, pair_base, pair_moving = self._ia, self._ib, pa, pb
            base_cols, mov_cols = slice(0, 3), slice(3, 6)
        else:
            base, own, pair_base, pair_moving = self._ib, self._ia, pb, pa
            base_cols, mov_cols = slice(3, 6), slice(0, 3)
        moved = own.copy()
        moved[plain] = fiber_partner_rows(pair_base, pair_moving, base[plain], own[plain],
                                          len(tbl.pts))
        chart_rows = np.flatnonzero(~plain)
        chart_moved = np.empty((len(chart_rows), 3), dtype=np.int64)
        for j, i in enumerate(chart_rows):
            center = point2(s.domain, *rec[i, base_cols].tolist())
            bp = BoundaryPoint(side, center, self._sdecode(int(code[i])),
                               point2(s.domain, *rec[i, mov_cols].tolist()))
            chart_moved[j] = sigma_extended(chart_for(s, side, center), bp).moving.raw
        moved[chart_rows] = tbl.index_of(chart_moved)
        ia, ib = (self._ia, moved) if side == "x" else (moved, self._ib)
        first, count = self._find(side, phase_key(ia, ib, code, self.p))
        # Notes list the plain rows first, then the chart rows.
        for i in np.concatenate([np.flatnonzero(plain & (count != 1)),
                                 chart_rows[count[chart_rows] != 1]]):
            at = f"({tuple(tbl.pts[ia[i]].tolist())}, {tuple(tbl.pts[ib[i]].tolist())})"
            if count[i] == 0:
                self.exceptions.append(f"sigma_{side} image of record {i} has no phase point {at}")
            else:
                self.exceptions.append(
                    f"sigma_{side} image of record {i} is ambiguous: "
                    f"{count[i]} candidates at {at}")
        return np.where(count == 1, first, -1)

    def _check_involution(self, side: str):
        perm = self._perms[side]
        if np.any(perm < 0):
            raise NonBijective(
                f"sigma_{side} is not total on the phase space; "
                f"first notes: {self.exceptions[:3]}")
        if not np.array_equal(perm[perm], np.arange(len(perm))):
            raise NonBijective(f"sigma_{side} is not an involution")

    def perm_phi(self) -> np.ndarray:
        return self.perm("y")[self.perm("x")]

    def fixed_points(self, side: str) -> list[PhasePoint]:
        perm = self.perm(side)
        idx = np.nonzero(perm == np.arange(len(perm)))[0]
        return [self.point(int(i)) for i in idx]

    def fixed_count(self, side: str) -> int:
        perm = self.perm(side)
        return int(np.count_nonzero(perm == np.arange(len(perm))))


def build_phase_space(s: WehlerSurface) -> PhaseSpace:
    return s.cached(("phase_space",), lambda: PhaseSpace(s))


# -- cycle census ------------------------------------------------------------------


@dataclass(frozen=True)
class CycleRecord:
    length: int
    symmetric: bool
    rep_index: int


@dataclass
class CycleCensus:
    """Full cycle decomposition of phi with symmetry labels.

    `cycles` lists (minimal period, symmetric?, representative index); the
    identity #symmetric = (fix_x + fix_y) / 2 and the length partition are
    verified at construction time.
    """

    space: PhaseSpace
    cycles: list[CycleRecord]
    fix_x: int
    fix_y: int
    total: int
    cycle_id: np.ndarray = dc_field(repr=False, default=None)

    @property
    def symmetric_count(self) -> int:
        return sum(1 for c in self.cycles if c.symmetric)

    @property
    def asymmetric_count(self) -> int:
        return sum(1 for c in self.cycles if not c.symmetric)

    def lengths(self, symmetric: bool) -> list[int]:
        return [c.length for c in self.cycles if c.symmetric == symmetric]

    def representative(self, record: CycleRecord) -> PhasePoint:
        return self.space.point(record.rep_index)

    def cycle_points(self, record: CycleRecord) -> list[PhasePoint]:
        phi = self.space.perm_phi()
        out = [record.rep_index]
        j = int(phi[record.rep_index])
        while j != record.rep_index:
            out.append(j)
            j = int(phi[j])
        return [self.space.point(i) for i in out]

    def verify(self):
        if sum(c.length for c in self.cycles) != self.total:
            raise NonBijective("cycle lengths do not partition the phase space")
        if (self.fix_x + self.fix_y) % 2:
            raise NonBijective("fix_x + fix_y is odd")
        if self.symmetric_count != (self.fix_x + self.fix_y) // 2:
            raise NonBijective(
                f"symmetric cycle count {self.symmetric_count} != "
                f"(fix_x + fix_y)/2 = {(self.fix_x + self.fix_y) // 2}")

    def period_histogram(self) -> dict[int, float]:
        """Fraction of phase points of each minimal period."""
        from .errors import EmptyPhaseSpace
        if self.total == 0:
            raise EmptyPhaseSpace("no phase points")
        hist: dict[int, int] = {}
        for c in self.cycles:
            hist[c.length] = hist.get(c.length, 0) + c.length
        return {t: n / self.total for t, n in sorted(hist.items())}

    def to_csv_rows(self) -> list[str]:
        """Aggregated rows `length,symmetric,count` (count = #cycles)."""
        agg: dict[tuple[int, bool], int] = {}
        for c in self.cycles:
            agg[(c.length, c.symmetric)] = agg.get((c.length, c.symmetric), 0) + 1
        rows = ["length,symmetric,count"]
        for (length, sym), n in sorted(agg.items()):
            rows.append(f"{length},{int(sym)},{n}")
        return rows

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "fix_x": self.fix_x,
            "fix_y": self.fix_y,
            "symmetric_cycles": self.symmetric_count,
            "asymmetric_cycles": self.asymmetric_count,
            "cycles": [
                {
                    "period": c.length,
                    "interleaved_length": 2 * c.length,
                    "symmetric": c.symmetric,
                    "representative": _point_json(self.representative(c)),
                }
                for c in self.cycles
            ],
        }


def _point_json(P: PhasePoint) -> dict:
    out = {"a": [int(v) for v in P.a.raw], "b": [int(v) for v in P.b.raw]}
    if P.sx is not None:
        out["sx"] = [int(v) for v in P.sx.raw]
    if P.sy is not None:
        out["sy"] = [int(v) for v in P.sy.raw]
    return out


def _cycles(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cycle_id, representatives, lengths) of the permutation phi.

    Each cycle is represented by its smallest index and numbered in the
    order of those minima.  Min-label pointer doubling finds the minima:
    after k rounds lab[i] is the minimum over the window of 2^k points i,
    phi(i), ... and f = phi^(2^k).  When a round changes no label,
    lab[i] <= lab[f[i]] everywhere, so the labels are equal along each chain
    i, f(i), f(f(i)), ..., which closes up.  On a cycle of length L the chain
    visits every gcd(2^k, L)-th point, so its windows cover the cycle and each
    label is the cycle's minimum.  Rounds: ceil(log2(longest cycle)) + 1.
    """
    n = len(phi)
    if np.any(np.bincount(phi, minlength=n) != 1):
        raise NonBijective("phi is not a bijection of the phase space")
    lab = np.arange(n)
    f = phi
    while True:
        nxt = np.minimum(lab, lab[f])
        if np.array_equal(nxt, lab):
            break
        lab = nxt
        f = f[f]
    is_rep = lab == np.arange(n)
    cycle_id = (np.cumsum(is_rep) - 1)[lab]
    return cycle_id, np.flatnonzero(is_rep), np.bincount(cycle_id)


def cycle_decomposition(s_or_space) -> CycleCensus:
    """Split phi over the materialized phase space into cycles; exact minimal periods.

    Every point is labelled with its cycle's smallest index by min-label
    pointer doubling (`_cycles`): take the minimum of the labels at i and at
    f(i), then square f, until no label changes, which takes about
    log2(longest cycle) array gathers instead of a walk point by point.
    Cycles are numbered, and represented, by those smallest indices.
    """
    space = s_or_space if isinstance(s_or_space, PhaseSpace) else build_phase_space(s_or_space)
    cycle_id, reps, lengths = _cycles(space.perm_phi())
    # A cycle is symmetric iff sigma_x maps it onto itself; sigma_x sends
    # phi-cycles to phi-cycles, so testing one representative suffices.
    symmetric = cycle_id[space.perm("x")[reps]] == cycle_id[reps]
    census = CycleCensus(
        space=space,
        cycles=[CycleRecord(length, sym, rep) for length, sym, rep
                in zip(lengths.tolist(), symmetric.tolist(), reps.tolist())],
        fix_x=space.fixed_count("x"),
        fix_y=space.fixed_count("y"),
        total=space.size,
        cycle_id=cycle_id,
    )
    census.verify()
    return census


def classify_cycle(s: WehlerSurface, cycle_points) -> str:
    """'symmetric' iff sigma_x maps the cycle's point set onto itself."""
    pts = list(cycle_points)
    as_set = {P.key() for P in pts}
    image = {phase_step(s, P, "x").key() for P in pts}
    return "symmetric" if image == as_set else "asymmetric"


def asymmetric_pairing(census: CycleCensus) -> dict[int, int]:
    """Pair each asymmetric cycle with its sigma_x image.

    Returns {cycle index: partner index}; a fixed-point-free, length
    preserving involution on the asymmetric cycles, or PairingFailure.
    """
    space = census.space
    sx = space.perm("x")
    cid = census.cycle_id
    pairing: dict[int, int] = {}
    for i, c in enumerate(census.cycles):
        if c.symmetric:
            continue
        partner = int(cid[int(sx[c.rep_index])])
        if partner == i:
            raise PairingFailure(f"asymmetric cycle {i} maps to itself")
        if census.cycles[partner].length != c.length:
            raise PairingFailure(
                f"cycles {i} and {partner} have different minimal periods")
        if census.cycles[partner].symmetric:
            raise PairingFailure(f"asymmetric cycle {i} pairs with a symmetric one")
        pairing[i] = partner
    for i, j in pairing.items():
        if pairing.get(j) != i:
            raise PairingFailure(f"pairing is not involutive at cycle {i}")
    return pairing
