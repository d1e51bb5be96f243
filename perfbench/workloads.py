"""Set-up, ops and output checks of the three benchmark workloads.

Every op calls the package only through module attributes
(`dynamics.cycle_decomposition`, ...), so that the traced run can swap in
timing wrappers without touching the package source.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from wehlerk3 import dynamics, stats, surface
from wehlerk3.errors import ExhaustedAttempts

WORKLOADS = ("census_p503", "degenerate_p101", "orbit_scalar")
# The default seed and one held-out seed have stored reference outputs.
REFERENCE_SEEDS = (0, 7)


CENSUS_SURFACES = 2
ORBIT_STEPS = 20
ORBIT_STARTS = 64
# Orbits per op.  One 20-step orbit takes about 15 ms, and the tail percentile
# of so short an op mostly measures the machine's jitter; a batch of 8 (4
# boundary starts and 4 regular ones) keeps the route mix of every op equal.
ORBIT_BATCH = 8


@dataclass(frozen=True)
class Scale:
    """The primes of the workloads; FULL is the benchmark, SMOKE its self-test."""

    census_p: int = 503
    degenerate_p: int = 101
    orbit_p: int = 101


FULL = Scale()
SMOKE = Scale(census_p=13, degenerate_p=13, orbit_p=13)


def derive(seed: int, tag: str, i: int = 0) -> int:
    """A surface or rng seed derived from the run seed; stable across Python versions."""
    h = hashlib.sha256(f"{seed}:{tag}:{i}".encode()).digest()
    return int.from_bytes(h[:8], "big") >> 2


def census_digest(census) -> str:
    """total, fix_x, fix_y and the sorted symmetric / asymmetric cycle lengths."""
    blob = json.dumps([census.total, census.fix_x, census.fix_y,
                       sorted(census.lengths(True)), sorted(census.lengths(False))])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def orbit_digest(paths) -> str:
    return hashlib.sha256(repr([[P.key() for P in path] for path in paths]).encode()
                          ).hexdigest()[:16]


# -- draw counting ------------------------------------------------------------------


def _succeeds(p: int, seed: int, mode: str, max_draws: int) -> bool:
    try:
        surface.random_surface(p, seed, mode=mode, max_draws=max_draws)
    except ExhaustedAttempts:
        return False
    return True


def count_draws(p: int, seed: int, mode: str, hint: int | None = None) -> int:
    """Smallest `max_draws` for which `random_surface(p, seed, mode)` succeeds.

    Found by bisection from outside the package, which is valid because the
    draw sequence is fixed by the seed.  A `hint` is checked first with the
    two probes that bracket it; a wrong hint falls back to the full search.
    """
    if hint and not (hint > 1 and _succeeds(p, seed, mode, hint - 1)) \
            and _succeeds(p, seed, mode, hint):
        return hint
    lo, hi = 0, 1  # lo is known to fail; hi is the next probe
    while not _succeeds(p, seed, mode, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _succeeds(p, seed, mode, mid):
            hi = mid
        else:
            lo = mid
    return hi


# -- results of one op ----------------------------------------------------------------


@dataclass
class OpResult:
    """What an op produced, kept for the output check and the trace counts."""

    key: object            # identifies the op's input for repeat comparisons
    digest: str
    surface: object = None
    census: object = None
    paths: list | None = None   # orbits, checked step by step


def boundary_records(census) -> int:
    """Phase points that carry a line parameter: total minus regular surface points."""
    s = census.space.surface
    pairs = surface.surface_pairs(s)
    xc = {d.base.raw for d in surface.degenerate_fibers(s, "x")}
    yc = {d.base.raw for d in surface.degenerate_fibers(s, "y")}
    if not xc and not yc:
        return 0
    regular = sum(1 for r in pairs.tolist()
                  if tuple(r[:3]) not in xc and tuple(r[3:]) not in yc)
    return census.total - regular


# -- census_p503 -------------------------------------------------------------------


class Census:
    """`wehlerk3 cycles` on pre-generated nondegenerate surfaces."""

    mode = "nondegenerate"
    collect = True  # ops are long and leave large heaps: collect between them

    def __init__(self, scale: Scale, seed: int, refs: dict):
        self.p = scale.census_p
        self.seeds = [derive(seed, "census", i) for i in range(CENSUS_SURFACES)]
        self.ref_digests = stored_digests(refs, "census_p503", scale, seed)

    def setup(self):
        self.texts = [surface.serialize_surface(surface.random_surface(self.p, sd))
                      for sd in self.seeds]

    def op_count(self) -> int:
        return len(self.texts)

    def draw_hint(self, i: int):
        return None

    def run_op(self, i: int) -> OpResult:
        k = i % len(self.texts)
        s = surface.parse_surface(self.texts[k])
        census = dynamics.cycle_decomposition(s)
        dynamics.asymmetric_pairing(census)
        stats.sanity_windows(s, census)
        return OpResult(k, census_digest(census), s, census)

    def surface_seed(self, i: int) -> int:
        return self.seeds[i % len(self.seeds)]

    def expected(self, i: int):
        return self.ref_digests[i % len(self.texts)] if self.ref_digests else None


# -- degenerate_p101 -----------------------------------------------------------------

# How many pool entries, nearest the pool's mean draw count, a seed picks from.
_NEAREST = 12


def candidates(pool: list) -> list:
    """Pool entries whose draw count is nearest the pool's mean.

    An op on one of them costs about what an average `run_experiment` job
    costs, whatever the run seed.
    """
    mean = sum(e["draws"] for e in pool) / len(pool)
    return sorted(pool, key=lambda e: (abs(e["draws"] - mean), e["seed"]))[:_NEAREST]


def degenerate_job(p: int, seed: int):
    """`_surface_job`'s public calls for one surface, minus the re-seeding."""
    s = surface.random_surface(p, seed, mode="degenerate")
    census = dynamics.cycle_decomposition(s)
    dynamics.asymmetric_pairing(census)
    stats.area_error(stats.empirical_curve(census))
    stats.sanity_windows(s, census)
    return s, census


class Degenerate:
    """One `run_experiment` surface job per op, through public calls.

    Rejection sampling makes a job's cost proportional to its draw count,
    which is geometric with a long tail, so surfaces picked at random would
    make runs with different seeds do very different amounts of work.  The
    surface seeds therefore come from a stored pool with known draw counts:
    each op takes one of the `candidates`, chosen by the run seed.
    """

    mode = "degenerate"
    collect = True

    def __init__(self, scale: Scale, seed: int, refs: dict):
        self.p = scale.degenerate_p
        self.seed = seed
        self.pool = refs["pools"][f"degenerate_p{self.p}"]

    def setup(self):
        rng = random.Random(derive(self.seed, "degenerate"))
        cands = candidates(self.pool)
        self.schedule = [rng.choice(cands) for _ in range(4096)]
        # Warm the lazy caches with one job on a fixed, cheap pool entry.
        warm = min(self.pool, key=lambda e: (e["draws"], e["seed"]))
        degenerate_job(self.p, warm["seed"])

    def op_count(self) -> int:
        return 4

    def draw_hint(self, i: int):
        return self.schedule[i]["draws"]

    def surface_seed(self, i: int) -> int:
        return self.schedule[i]["seed"]

    def run_op(self, i: int) -> OpResult:
        sd = self.schedule[i]["seed"]
        s, census = degenerate_job(self.p, sd)
        return OpResult(sd, census_digest(census), s, census)

    def expected(self, i: int) -> str:
        return self.schedule[i]["digest"]


# -- orbit_scalar --------------------------------------------------------------------


class Orbit:
    """Fixed-length scalar `orbit()` runs on one degenerate surface.

    Half of the starts are boundary points, so both the chart route and the
    Vieta route of `phase_step` run.  One op runs `ORBIT_BATCH` orbits.
    """

    mode = "degenerate"
    collect = False  # ops of a few milliseconds; a collection would dwarf them

    def __init__(self, scale: Scale, seed: int, refs: dict):
        self.p = scale.orbit_p
        rng = random.Random(derive(seed, "orbit"))
        self.entry = rng.choice(candidates(refs["pools"][f"degenerate_p{self.p}"]))
        self.start_seed = derive(seed, "orbit-starts")
        self.ref_digests = stored_digests(refs, "orbit_scalar", scale, seed)

    def setup(self):
        s = surface.random_surface(self.p, self.entry["seed"], mode="degenerate")
        space = dynamics.build_phase_space(s)
        self.phi = space.perm_phi()
        points = space.points()
        boundary = [i for i, P in enumerate(points) if P.kind == "boundary"]
        regular = [i for i, P in enumerate(points) if P.kind == "regular"]
        rng = random.Random(self.start_seed)
        half = ORBIT_STARTS // 2
        picks_b = rng.sample(boundary, min(half, len(boundary)))
        picks_r = rng.sample(regular, ORBIT_STARTS - len(picks_b))
        picks = [i for pair in zip(picks_b, picks_r) for i in pair]
        picks += picks_r[len(picks_b):]
        self.surface, self.space = s, space
        self.starts = [points[i] for i in picks]

    def op_count(self) -> int:
        return ORBIT_STARTS // ORBIT_BATCH

    def draw_hint(self, i: int):
        return self.entry["draws"]

    def surface_seed(self, i: int) -> int:
        return self.entry["seed"]

    def run_op(self, i: int) -> OpResult:
        k = i % self.op_count()
        paths = [dynamics.orbit(self.surface, P, ORBIT_STEPS)
                 for P in self.starts[k * ORBIT_BATCH:(k + 1) * ORBIT_BATCH]]
        return OpResult(k, orbit_digest(paths), self.surface, paths=paths)

    def expected(self, i: int):
        return self.ref_digests[i % self.op_count()] if self.ref_digests else None

    def check_paths(self, paths) -> bool:
        """Every step's `index_of` equals the `perm_phi` image of the one before."""
        for path in paths:
            idx = [self.space.index_of(P) for P in path]
            if any(int(self.phi[a]) != b for a, b in zip(idx, idx[1:])):
                return False
        return True


KINDS = {"census_p503": Census, "degenerate_p101": Degenerate, "orbit_scalar": Orbit}


def ref_key(name: str, scale: Scale) -> str:
    """Reference-table key of a workload at a scale (only FULL has references)."""
    p = {"census_p503": scale.census_p, "degenerate_p101": scale.degenerate_p,
         "orbit_scalar": scale.orbit_p}[name]
    return f"{name}@p{p}"


def stored_outputs(refs: dict, name: str, scale: Scale, seed: int):
    """{"digests", "counts"} stored for this workload, scale and seed, or None."""
    return refs.get("outputs", {}).get(ref_key(name, scale), {}).get(str(seed))


def stored_digests(refs: dict, name: str, scale: Scale, seed: int):
    stored = stored_outputs(refs, name, scale, seed)
    return stored["digests"] if stored else None
