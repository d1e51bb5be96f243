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
from functools import cached_property

import numpy as np

from ._engine import SIDES, phase_key, side_index
from .blowup import (
    BoundaryPoint,
    _parameter,
    _parameter_index,
    chart_for,
    exceptional_points,
    resolve_s,
    sigma_extended,
)
from .errors import NonBijective, NotOnSurface, PairingFailure
from .geometry import ProjectivePoint1, ProjectivePoint2, point2
from .involution import _cor1_partner
from .surface import WehlerSurface, _degenerate_record, pair_rows, table_points

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


# -- standalone scalar stepping (orbits, public phi/psi) -------------------------


def lift_pair(s: WehlerSurface, a, b) -> PhasePoint:
    """Attach line parameters to a raw surface point.

    Raises NotOnSurface off L = Q = 0, and NoRationalS/AmbiguousS when a
    degenerate side has no unique parameter; those points are outside the
    phase space.
    """
    if not isinstance(a, ProjectivePoint2):
        a = point2(s.domain, *a)
    if not isinstance(b, ProjectivePoint2):
        b = point2(s.domain, *b)
    if not s.contains(a.coords, b.coords):
        raise NotOnSurface(f"({a}, {b}) does not satisfy L = Q = 0")
    sx = resolve_s(chart_for(s, "x", a), b) if a.raw in _degenerate_record(s, "x") else None
    sy = resolve_s(chart_for(s, "y", b), a) if b.raw in _degenerate_record(s, "y") else None
    return PhasePoint(a, b, sx, sy)


def phase_step(s: WehlerSurface, P: PhasePoint, side: str) -> PhasePoint:
    """Apply sigma_side to a phase point, routing through charts as needed.

    The side's base keeps its point and its own line parameter.  The moving
    point is swapped on that parameter's chart line when the base is a
    chart center, else by Vieta.  The other side's parameter belongs to the
    moving point, so it is derived again for the new one, unless the swap
    fixed the point.
    """
    own = side_index(side)
    pts, params = [P.a, P.b], [P.sx, P.sy]
    base, moving = pts[own], pts[1 - own]
    if params[own] is not None:
        bp = BoundaryPoint(side, base, params[own], moving)
        new = sigma_extended(chart_for(s, side, base), bp).moving
    else:
        new = point2(s.domain, *_cor1_partner(s, side, base.coords, moving.coords))
    if new != moving:
        other = SIDES[1 - own]
        params[1 - own] = (resolve_s(chart_for(s, other, new), base)
                           if new.raw in _degenerate_record(s, other) else None)
    pts[1 - own] = new
    return PhasePoint(*pts, *params)


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


class PhaseSpace:
    """All phase points of a surface with the two involution permutations.

    A record is stored as the plane-table rows of a and b (`_ia`, `_ib`) and
    one line-parameter code per side (`_codes`): t for s = (1 : t), p for
    s = (0 : 1) and p + 1 where the side carries no parameter.  A code is
    (j - 1) mod (p + 1) for s at position j of `blowup.line_parameters`
    (`_scode`, `_sdecode`), so P^1 is numbered only there.  Records are
    sorted by their x key (`phase_key` of the rows and the sx code, `_keys`),
    then by the sy code; `_boundary` lists the positions of the boundary
    records, those with a code on some side.  Each involution is a product
    of disjoint transpositions, one per two-point fiber, and `perm` swaps
    the records of each fiber.
    """

    def __init__(self, s: WehlerSurface):
        self.surface = s
        self.p = s.domain.p
        self.exceptions: list[str] = []
        self._tbl = s.engine().table
        self._build_points()
        self._perms: dict[str, np.ndarray | str] = {}  # a perm or why it failed

    # -- construction ------------------------------------------------------

    def _chart_lines(self, side: str):
        """(center rows, line id, moving row) of the boundary points of a side's charts.

        One pass over the side's `_degenerate_record` gives the centers, in
        table order, and their charts; a boundary point's line id is its
        center's position there times p + 1 plus the code of its line.
        """
        s = self.surface
        centers, line, moving = [], [], []
        for j, (raw, info) in enumerate(_degenerate_record(s, side).items()):
            centers.append(self._tbl.index_of(raw))
            for bp in exceptional_points(chart_for(s, side, info.base)):
                line.append(j * (self.p + 1) + self._scode(bp.s))
                moving.append(self._tbl.index_of(bp.moving.raw))
        return tuple(np.array(v, dtype=np.int64) for v in (centers, line, moving))

    def _build_points(self):
        """The records in key order, with no sort over the regular records.

        The regular records are the rational points over bases that are
        centers of neither side, and they come out of `pair_rows` in key
        order already.  Only the boundary records, a few hundred at most,
        are sorted, by (x key, sy code), and each goes in at the place its
        key finds among the regular keys.  No regular key equals a boundary
        key: x-only and both-side records carry an sx code, and y-only
        records sit over a y center, which no regular record does.  Plane-
        table rows are in lex order, so (row of a, row of b, sx code) orders
        like (a, b, sx) and one key replaces seven sort columns.
        """
        p = self.p
        n = len(self._tbl.pts)
        none = p + 1
        pa, pb = pair_rows(self.surface)
        self._lines = {side: self._chart_lines(side) for side in ("x", "y")}
        (xc, x_line, x_moving), (yc, y_line, y_moving) = self._lines["x"], self._lines["y"]
        # Degenerate centers marked over the plane-table rows.
        x_center, y_center = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        x_center[xc] = y_center[yc] = True

        # Boundary points: (a, b) = (center, moving) on side x, (moving,
        # center) on side y.  Those whose other coordinate is a center of the
        # other side are merged by pair key; one record is kept where exactly
        # one x line and one y line meet.
        xa, xb, xcode = xc[x_line // (p + 1)], x_moving, x_line % (p + 1)
        ya, yb, ycode = y_moving, yc[y_line // (p + 1)], y_line % (p + 1)
        x_only, y_only = ~y_center[xb], ~x_center[ya]
        xk = xa[~x_only] * n + xb[~x_only]
        yk = ya[~y_only] * n + yb[~y_only]
        keys, where = np.unique(np.concatenate([xk, yk]), return_inverse=True)
        at_x, at_y = where[:len(xk)], where[len(xk):]
        n_x, n_y = (np.bincount(at, minlength=len(keys)) for at in (at_x, at_y))
        # A key's code sum is its one line's code where it has one line.
        both_x, both_y = (np.bincount(at, weights=code, minlength=len(keys)).astype(np.int64)
                          for at, code in ((at_x, xcode[~x_only]), (at_y, ycode[~y_only])))
        one = (n_x == 1) & (n_y == 1)
        for key, lines_x, lines_y in zip(*(v[~one].tolist() for v in (keys, n_x, n_y))):
            at = tuple(tuple(self._tbl.pts[r].tolist()) for r in divmod(key, n))
            self.exceptions.append(
                f"ambiguous both-side boundary point {at}: "
                f"{lines_x} x-lines, {lines_y} y-lines")

        groups = ((xa[x_only], xb[x_only], xcode[x_only], none),
                  (ya[y_only], yb[y_only], none, ycode[y_only]),
                  (keys[one] // n, keys[one] % n, both_x[one], both_y[one]))
        ba, bb, bx, by = (np.concatenate([np.broadcast_to(g[k], g[0].shape) for g in groups])
                          for k in range(4))
        bkey = phase_key(ba, bb, bx, p)
        order = np.lexsort((by, bkey))

        ia, ib, at = pa, pb, np.zeros(0, dtype=np.intp)
        if len(xc) or len(yc):
            regular = ~(x_center.take(pa) | y_center.take(pb))
            ra, rb = pa[regular], pb[regular]
            # A boundary record's place among all records: its regular
            # predecessors plus the boundary records before it.
            at = np.searchsorted(phase_key(ra, rb, none, p), bkey.take(order))
            at += np.arange(len(at))
            ia, ib = (np.empty(len(ra) + len(at), dtype=np.int64) for _ in range(2))
            keep = np.ones(len(ia), dtype=bool)
            keep[at] = False
            for out, r, b in ((ia, ra, ba), (ib, rb, bb)):
                out[keep] = r
                out[at] = b.take(order)
        self._ia, self._ib = ia, ib
        self._codes = {"x": np.full(len(ia), none), "y": np.full(len(ia), none)}
        self._codes["x"][at], self._codes["y"][at] = bx.take(order), by.take(order)
        self._boundary = at

    def _scode(self, s: ProjectivePoint1 | None) -> int:
        return self.p + 1 if s is None else (_parameter_index(self.p, *s.raw) - 1) % (self.p + 1)

    def _sdecode(self, code: int) -> ProjectivePoint1 | None:
        if code == self.p + 1:
            return None
        return ProjectivePoint1(_parameter((code + 1) % (self.p + 1)))

    # -- point access ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._ia)

    @property
    def records(self) -> np.ndarray:
        """The (N, 8) int64 records [a | b | sx code | sy code], built on each call."""
        return np.concatenate([self._tbl.coords(self._ia, self._ib),
                               np.stack([self._codes["x"], self._codes["y"]], axis=1)], axis=1)

    def point(self, i: int) -> PhasePoint:
        return self.points([i])[0]

    def points(self, idx=slice(None)) -> list[PhasePoint]:
        """The records at `idx` (all of them by default) as PhasePoints.

        One point object is made per distinct plane-table row and one line
        parameter per distinct code, and records share them.
        """
        s = self.surface
        columns = [table_points(s, self._ia[idx]), table_points(s, self._ib[idx])]
        for side in ("x", "y"):
            codes = self._codes[side][idx].tolist()
            decoded = {c: self._sdecode(c) for c in set(codes)}
            columns.append([decoded[c] for c in codes])
        return [PhasePoint(*fields) for fields in zip(*columns)]

    @cached_property
    def _keys(self) -> np.ndarray:
        """The records' x keys, ascending; built on the first lookup."""
        return phase_key(self._ia, self._ib, self._codes["x"], self.p)

    def index_of(self, P: PhasePoint) -> int:
        """The record of P: a left and right search of its x key, then its sy code."""
        sx, sy = map(self._scode, (P.sx, P.sy))
        key = phase_key(self._tbl.index_of(P.a.raw), self._tbl.index_of(P.b.raw), sx, self.p)
        lo, hi = (np.searchsorted(self._keys, key, side=end) for end in ("left", "right"))
        # Records sharing an x key differ only in sy.
        hit = lo + np.flatnonzero(self._codes["y"][lo:hi] == sy)
        if len(hit) != 1:
            raise KeyError(f"{P} is not in the phase space")
        return int(hit[0])

    # -- the involution permutations --------------------------------------------

    def perm(self, side: str) -> np.ndarray:
        """sigma_side as a permutation of the records, built once per side.

        Where sigma_side is not an involution of the records, this call and
        every later one raise the same NonBijective.
        """
        if side not in self._perms:
            first = len(self.exceptions)
            perm = self._build_perm(side)
            notes = self.exceptions[first:first + 3]
            self._perms[side] = self._check_involution(side, perm, notes) or perm
        perm = self._perms[side]
        if isinstance(perm, str):
            raise NonBijective(perm)
        return perm

    def _build_perm(self, side: str) -> np.ndarray:
        """Swap the records within each fiber of sigma_side.

        sigma_side keeps a record's base (its row on that side) and its own
        line code, and moves it within the fiber they name, which has one or
        two points.  A plain record (no code on the side) sits over a base
        that is not degenerate, whose fiber is its rational points in
        `pair_rows`.  A chart record's fiber is the boundary points on its
        line of its center's blow-up chart, as `sigma_extended` moves it.
        Each record gets a dense group id: its base row for a plain record,
        and n + (center position) * (p + 1) + code for a chart record, n the
        plane-table size.  One bincount gives each group's size and one
        weighted by the record indices its index sum, so a record's partner
        in a group of two is the sum minus its own index, and a record alone
        is its own partner; no sort runs.  A group that holds exactly its
        fiber's points, at distinct moving rows, swaps its two records or
        fixes its one.  Any other group is noted in `exceptions`, in the
        order of its smallest record, and its records get -1.
        """
        p = self.p
        n = len(self._tbl.pts)
        k = side_index(side)
        rows = (self._ia, self._ib)
        base, moving, code = rows[k], rows[1 - k], self._codes[side]
        centers, line, _ = self._lines[side]
        # Chart records are boundary records with a code on this side.
        chart = self._boundary.compress(code.take(self._boundary) != p + 1)
        group = base
        if len(chart):
            group = base.copy()
            group[chart] = n + np.searchsorted(centers, base[chart]) * (p + 1) + code[chart]
        groups = n + len(centers) * (p + 1)
        size = np.bincount(group, minlength=groups)
        perm = _partners(group, size)
        # Each group's fiber size: the rational points over a plain base, the
        # boundary points on a chart line.
        points = np.bincount(pair_rows(self.surface)[k], minlength=groups)
        points[n:] = np.bincount(line, minlength=groups - n)
        bad = np.flatnonzero(((size != points) & (size > 0)) | (size > 2))
        held = np.flatnonzero(np.isin(group, bad)) if len(bad) else bad
        perm[held] = -1
        # Records that meet their partner's moving row: the fixed ones and
        # the two of any group whose records share one.
        same = np.flatnonzero(moving.take(perm) == moving)
        partner = perm.take(same)
        twins = same.compress((partner >= 0) & (partner != same))
        perm[twins] = -1
        held = np.sort(np.concatenate([held, twins]))

        pts = self._tbl.pts
        held_group = group.take(held)
        firsts = np.sort(np.unique(held_group, return_index=True)[1])
        for g, smallest in zip(held_group[firsts].tolist(), held[firsts].tolist()):
            members = held[held_group == g]
            at = tuple(pts[base[smallest]].tolist())
            on = f" on line s = {self._sdecode(int(code[smallest]))}" if g >= n else ""
            self.exceptions.append(
                f"sigma_{side} fiber over {at}{on}: points={points[g]}, records={size[g]}, "
                f"distinct rows={len(np.unique(moving[members]))}, smallest record={smallest}")
        return perm

    def _check_involution(self, side: str, perm: np.ndarray, notes: list) -> str | None:
        """Why `perm` is not an involution of the records, or None if it is one.

        `notes` are the first notes that building `perm` added.
        """
        if np.any(perm < 0):
            return (f"sigma_{side} is not total on the phase space; "
                    f"first notes: {notes}")
        if not np.array_equal(perm.take(perm), np.arange(len(perm))):
            return f"sigma_{side} is not an involution"
        return None

    def perm_phi(self) -> np.ndarray:
        return self.perm("y").take(self.perm("x"))

    def fixed_points(self, side: str) -> list[PhasePoint]:
        perm = self.perm(side)
        idx = np.nonzero(perm == np.arange(len(perm)))[0]
        return self.points(idx)

    def fixed_count(self, side: str) -> int:
        perm = self.perm(side)
        return int(np.count_nonzero(perm == np.arange(len(perm))))


def build_phase_space(s: WehlerSurface) -> PhaseSpace:
    return s.cached(("phase_space",), lambda: PhaseSpace(s))


def _partners(group: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Each record's partner in its group, for groups of one or two records.

    group[i] is record i's group and size the group sizes.  One bincount
    weighted by the record indices gives each group's index sum, which a
    record alone doubles, and a record's partner is the sum minus its own
    index.  The sums are below 2N, exact in float64.
    """
    index = np.arange(len(group))
    total = np.bincount(group, weights=index, minlength=len(size)).astype(np.intp)
    total[size == 1] *= 2
    partner = total.take(group)
    partner -= index
    return partner


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
        return self.space.points(out)

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
    out = {"a": list(P.a), "b": list(P.b)}
    if P.sx is not None:
        out["sx"] = list(P.sx)
    if P.sy is not None:
        out["sy"] = list(P.sy)
    return out


# The cycle split marks every _marker_gap(n)-th of n records, and a marker's
# walker stops after _WALK_STEPS times that gap.  Below 2^15 records the gap
# is 1 and the split is plain doubling; each lockstep step costs a few numpy
# calls, so the gap stops at 16.  On the p = 503 census (k = 15) walks of at
# most 4k, 8k and 16k steps tied at 8.0-8.4 ms, and unbounded walks took
# 11.5 ms, spent on the last few long segments (timeit, 2-core VM).
def _marker_gap(n: int) -> int:
    return min(max(n >> 14, 1), 16)


_WALK_STEPS = 8


def _min_labels(f: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Each node's smallest label on its cycle of the permutation f.

    Min-label pointer doubling: after r rounds lab[i] is the minimum over
    the window of 2^r nodes i, f(i), ... and the pointer is f^(2^r).  When
    a round changes no label, lab[i] <= lab[g[i]] everywhere for the current
    pointer g, so the labels are equal along each chain i, g(i), g(g(i)),
    ..., which closes up.  On a cycle of length L the chain visits every
    gcd(2^r, L)-th node, so its windows cover the cycle and each label is
    the cycle's minimum.  Rounds: ceil(log2(longest cycle)) + 1.  The
    gathers use np.take, which numpy runs faster than fancy indexing on 1-D
    int arrays.
    """
    while True:
        nxt = lab.take(f)
        np.minimum(nxt, lab, out=nxt)
        if np.array_equal(nxt, lab):
            return lab
        lab = nxt
        f = f.take(f)


def _contract(phi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node, succ, seed): phi contracted on every k-th index, its markers.

    All markers walk phi in lockstep until each reaches the next marker, and
    each point a walker passes is owned by that walker's marker; a walker
    still going after _WALK_STEPS * k steps stops where it is.  The
    contracted permutation `succ` has one node per marker, numbered first,
    and one per point that no walker reached: a marker's successor is the
    marker (or the point) where its walker stopped, and an unreached point's
    is its image, which is a marker or unreached too.  node[i] is the node
    whose label point i takes: its owner's, or its own.  A node's seed is
    the smallest point that takes its label: the minimum of a marker's
    segment (the marker and the points its walker passed), an unreached
    point itself.  With k = 1 every point is a marker and the contraction
    is phi itself.
    """
    n = len(phi)
    if k == 1:
        index = np.arange(n)
        return index, phi, index
    markers = np.arange(0, n, k)
    node = np.full(n, -1, dtype=np.intp)
    node[markers] = np.arange(len(markers))
    succ = np.empty(len(markers), dtype=np.intp)
    walker, at = np.arange(len(markers)), phi.take(markers)
    for _ in range(_WALK_STEPS * k):
        reached = node.take(at)
        go = np.flatnonzero(reached < 0)
        if len(go) < len(at):
            # A walker that goes on is written again when it stops.
            succ[walker] = reached
            walker, at = walker.take(go), at.take(go)
            if not len(walker):
                break
        node[at] = walker
        at = phi.take(at)
    rest = np.flatnonzero(node < 0)
    node[rest] = len(markers) + np.arange(len(rest))
    succ[walker] = node.take(at)
    seed = np.full(len(markers) + len(rest), n)
    np.minimum.at(seed, node, np.arange(n))
    return node, np.concatenate([succ, node.take(phi.take(rest))]), seed


def _cycles(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cycle_id, representatives, lengths) of the permutation phi.

    Each cycle is represented by its smallest index and numbered in the
    order of those minima.  phi is contracted on every k-th index,
    k = _marker_gap(n) (`_contract`), and min-label pointer doubling
    (`_min_labels`) runs on the contraction, each node seeded with the
    smallest point that takes its label.  That gives every cycle's minimum:
    the contraction maps the nodes of one phi cycle among themselves, and
    each point of the cycle takes the label of exactly one of them.  A
    cycle that holds a marker contracts to its markers and any points no
    walker reached; a cycle that holds none is reached by no walker and
    stays whole among the unreached points.  Either way the seeds of the
    cycle's nodes are the minima of sets that partition the cycle, so the
    smallest seed, which doubling gives every node, is the cycle's minimum.
    On a census at p = 503 (N ~ 254k, k = 15) the walk passes every point
    once in at most 8k = 120 steps, and the doubling runs on about 17k
    nodes instead of 254k points.
    """
    n = len(phi)
    if np.any(np.bincount(phi, minlength=n) != 1):
        raise NonBijective("phi is not a bijection of the phase space")
    node, succ, seed = _contract(phi, _marker_gap(n))
    lab = _min_labels(succ, seed)
    # A cycle's minimum point is the seed of exactly one node of the cycle;
    # cycles are numbered in the order of their minima.
    first = np.flatnonzero(lab == seed)
    first = first.take(np.argsort(seed.take(first)))
    number = np.empty(len(seed), dtype=np.intp)
    number[first] = np.arange(len(first))
    cycle_id = number.take(node.take(lab)).take(node)
    return cycle_id, seed.take(first), np.bincount(cycle_id, minlength=len(first))


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
    symmetric = cycle_id.take(space.perm("x").take(reps)) == cycle_id.take(reps)
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
