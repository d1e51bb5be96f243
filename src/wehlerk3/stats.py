"""Cycle-length statistics and the comparison with R(x) = 1 - e^(-x)(1+x).

Two scalings of the empirical cumulative distribution are supported:

* "definition": z = 2N / (#Fix sigma_x + #Fix sigma_y), all cycle mass,
  normalized by the phase-space size.
* "symmetric-mean": z = mean symmetric cycle length, symmetric mass only,
  normalized by the total symmetric mass.  This is the scaling used for the
  published distribution plots, and the default for figure reproduction.

Multi-surface experiments draw reproducible random surfaces per prime,
decompose their phase spaces, and report averaged curves, per-surface area
errors against the limit law, and the point-count / fixed-point sanity
windows.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from itertools import accumulate

from .dynamics import CycleCensus, cycle_decomposition
from .errors import (
    AmbiguousS,
    BadDomain,
    EmptyPhaseSpace,
    ExhaustedAttempts,
    NegativeX,
    NoRationalS,
    NoSymmetricCycles,
    ZeroFixedPoints,
)
from .field import next_prime
from .surface import degenerate_fibers, point_count, random_surface

GRID_MAX = 10.0
DEFAULT_STEP = 0.1
MAX_PRIME_ADVANCES = 8  # how often a surface job may move on to the next prime

# Prime list used for the published experiments.
EXPERIMENT_PRIMES = (
    29, 37, 59, 61, 83, 113, 131, 149, 167, 181,
    191, 223, 251, 269, 307, 353, 401, 457, 503,
)


def limit_R(x: float) -> float:
    """The limit law R(x) = 1 - e^(-x) (1 + x) for x >= 0.

    This is the cumulative form: R(0) = 0 and R(x) -> 1.
    """
    if x < 0:
        raise NegativeX(f"R(x) needs x >= 0, got {x}")
    return 1.0 - math.exp(-x) * (1.0 + x)


def limit_R_area(upper: float = GRID_MAX) -> float:
    """Exact integral of R on [0, upper]: x + e^(-x)(x+2) evaluated at the ends."""
    return (upper + math.exp(-upper) * (upper + 2.0)) - 2.0


@dataclass(frozen=True)
class DistributionCurve:
    """Empirical cumulative fraction of cycle mass below each scaled length."""

    xs: tuple
    values: tuple
    z: float
    variant: str

    def __post_init__(self):
        vals = self.values
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            raise BadDomain("curve values must be monotone non-decreasing")
        if vals and (vals[-1] > 1.0 + 1e-9 or vals[0] < -1e-9):
            raise BadDomain("curve values must lie in [0, 1]")


def make_grid(step: float = DEFAULT_STEP) -> tuple:
    """0, step, ..., GRID_MAX; BadDomain unless step is positive and reaches GRID_MAX."""
    n = round(GRID_MAX / step) if step > 0 else 0
    if not abs(n * step - GRID_MAX) <= 1e-9:  # the tolerance of `area_error`
        raise BadDomain(f"grid step {step} must be positive and reach {GRID_MAX}")
    return tuple(i * step for i in range(n + 1))


def period_histogram(census: CycleCensus) -> dict[int, float]:
    """P_t: fraction of phase points of minimal period t."""
    return census.period_histogram()


def symmetric_point_fraction(census: CycleCensus) -> float:
    if census.total == 0:
        raise EmptyPhaseSpace("no phase points")
    return sum(census.lengths(True)) / census.total


def empirical_curve(
    census: CycleCensus, variant: str = "symmetric-mean", step: float = DEFAULT_STEP
) -> DistributionCurve:
    """Scaled cumulative distribution of one census on the grid [0, 10]."""
    if census.total == 0:
        raise EmptyPhaseSpace("no phase points")
    return _curve_from_lengths(
        census.lengths(True), census.lengths(False),
        census.total, census.fix_x + census.fix_y, variant, step,
    )


def _curve_from_lengths(sym, asym, total, fix_sum, variant, step):
    xs = make_grid(step)
    if variant == "definition":
        if fix_sum == 0:
            raise ZeroFixedPoints("definition scaling needs a fixed point")
        z = 2.0 * total / fix_sum
        values = _cumulative(xs, z, [(l, l) for l in sym + asym], total)
    elif variant == "symmetric-mean":
        if not sym:
            raise NoSymmetricCycles("symmetric-mean scaling needs a symmetric cycle")
        z = sum(sym) / len(sym)
        values = _cumulative(xs, z, [(l, l) for l in sym], sum(sym))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return DistributionCurve(xs, values, z, variant)


def _cumulative(xs, z, weighted_lengths, denom):
    """Cumulative mass of (length, weight) pairs with length <= x*z.

    Running sums of the weights in sorted order, starting from 0, so each
    value is the same float as adding the weights one by one.
    """
    pairs = sorted(weighted_lengths)
    lengths = [length for length, _ in pairs]
    sums = list(accumulate((weight for _, weight in pairs), initial=0))
    return tuple(sums[bisect_right(lengths, x * z)] / denom for x in xs)


def area_error(curve: DistributionCurve, upper: float = GRID_MAX) -> float:
    """Percent error between the curve's area and the limit law's.

    Trapezoid rule on the curve grid versus the closed-form integral of R;
    the result is 100 |A_emp - A_R| / A_R.
    """
    xs, vals = curve.xs, curve.values
    if not xs or abs(xs[0]) > 1e-12 or abs(xs[-1] - upper) > 1e-9:
        raise BadDomain(f"curve must cover [0, {upper}]")
    a_emp = 0.0
    for i in range(1, len(xs)):
        a_emp += 0.5 * (xs[i] - xs[i - 1]) * (vals[i] + vals[i - 1])
    a_r = limit_R_area(upper)
    return 100.0 * abs(a_emp - a_r) / a_r


# -- sanity windows --------------------------------------------------------------


@dataclass(frozen=True)
class WindowCheck:
    name: str
    bound: float
    actual: float
    slack: float
    passed: bool
    required: bool = True


@dataclass(frozen=True)
class WindowReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def rows(self) -> list[str]:
        out = ["check,bound,actual,slack,pass"]
        for c in self.checks:
            out.append(f"{c.name},{c.bound:g},{c.actual:g},{c.slack:g},{int(c.passed)}")
        return out


def point_count_lower(p: int) -> int:
    """The required lower bound p^2 - 22p + 1 on a surface's rational point count."""
    return p * p - 22 * p + 1


def sanity_windows(s, census: CycleCensus) -> WindowReport:
    """Point-count lower bound and fixed-point windows, exact comparisons.

    The fixed-point upper bound is (p+1) + 20 sqrt(p) + 6 w, with w the number
    of degenerate fibers of the involution's own side; the lower bound
    (p+1) - 20 sqrt(p) is only required once it is positive (p >= 401).
    The two-sided point-count window is reported but not required.
    """
    p = s.domain.p
    n_points = point_count(s)
    checks = []
    lb = point_count_lower(p)
    checks.append(WindowCheck(
        "point_count_lower", lb, n_points, n_points - lb, n_points >= lb))
    dev, width = abs(n_points - (p * p + 1)), 22 * p
    checks.append(WindowCheck(
        "point_count_two_sided", width, dev, width - dev, dev <= width, required=False))
    w = {"x": len(degenerate_fibers(s, "x")), "y": len(degenerate_fibers(s, "y"))}
    sq20 = 20.0 * math.sqrt(p)
    for side, fix in (("x", census.fix_x), ("y", census.fix_y)):
        # upper: fix <= (p+1) + 20 sqrt(p) + 6w, checked as an exact integer
        # inequality: (fix - (p+1) - 6w)^2 <= 400 p when the difference is > 0.
        d = fix - (p + 1) - 6 * w[side]
        upper_ok = d <= 0 or d * d <= 400 * p
        checks.append(WindowCheck(
            f"fix_{side}_upper", (p + 1) + sq20 + 6 * w[side], fix,
            (p + 1) + sq20 + 6 * w[side] - fix, upper_ok))
        lower_applies = (p + 1) * (p + 1) > 400 * p
        dlow = (p + 1) - fix
        lower_ok = (not lower_applies) or dlow <= 0 or dlow * dlow <= 400 * p
        checks.append(WindowCheck(
            f"fix_{side}_lower", max((p + 1) - sq20, 0.0), fix,
            fix - ((p + 1) - sq20), lower_ok, required=lower_applies))
    return WindowReport(tuple(checks))


# -- experiments -------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    count: int
    primes: tuple = EXPERIMENT_PRIMES
    seed: int = 0
    mode: str = "nondegenerate"
    z_variant: str = "symmetric-mean"
    grid_step: float = DEFAULT_STEP
    threads: int = 1


@dataclass
class SurfaceSummary:
    prime_listed: int
    prime_used: int
    index: int
    seed: int
    total: int
    fix_x: int
    fix_y: int
    sym_lengths: list
    asym_lengths: list
    w_x: int
    w_y: int
    windows: WindowReport
    area_error: float
    curve: DistributionCurve
    notes: list = dc_field(default_factory=list)

    @property
    def symmetric_fraction(self) -> float:
        return sum(self.sym_lengths) / self.total if self.total else 0.0


@dataclass
class PrimeBlock:
    prime: int
    summaries: list
    averaged_curve: DistributionCurve
    mean_area_error: float
    averaged_area_error: float
    mean_symmetric_fraction: float
    windows_passed: bool


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    blocks: list

    def to_json_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "mode": self.config.mode,
            "z_variant": self.config.z_variant,
            "grid_step": self.config.grid_step,
            "count": self.config.count,
            "primes": list(self.config.primes),
            "blocks": [
                {
                    "prime": b.prime,
                    "mean_area_error": b.mean_area_error,
                    "averaged_area_error": b.averaged_area_error,
                    "mean_symmetric_fraction": b.mean_symmetric_fraction,
                    "windows_passed": b.windows_passed,
                    "surfaces": [
                        {
                            "index": s.index,
                            "prime_listed": s.prime_listed,
                            "prime_used": s.prime_used,
                            "seed": s.seed,
                            "total": s.total,
                            "fix_x": s.fix_x,
                            "fix_y": s.fix_y,
                            "symmetric_cycles": len(s.sym_lengths),
                            "asymmetric_cycles": len(s.asym_lengths),
                            "degenerate_fibers": [s.w_x, s.w_y],
                            "area_error": s.area_error,
                            "symmetric_fraction": s.symmetric_fraction,
                            "windows_passed": s.windows.passed,
                            "notes": s.notes,
                        }
                        for s in b.summaries
                    ],
                }
                for b in self.blocks
            ],
        }

    def write(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        for b in self.blocks:
            path = os.path.join(outdir, f"curve_p{b.prime}.csv")
            with open(path, "w") as fh:
                fh.write("x,value\n")
                for x, v in zip(b.averaged_curve.xs, b.averaged_curve.values):
                    fh.write(f"{x:.6g},{v:.10g}\n")
        with open(os.path.join(outdir, "windows.csv"), "w") as fh:
            fh.write("prime,surface,check,bound,actual,slack,pass\n")
            for b in self.blocks:
                for s in b.summaries:
                    for c in s.windows.checks:
                        fh.write(
                            f"{b.prime},{s.index},{c.name},{c.bound:g},"
                            f"{c.actual:g},{c.slack:g},{int(c.passed)}\n")


def _derive_seed(seed: int, p: int, idx: int) -> int:
    return (seed * 2_654_435_761 + p * 97_531 + idx * 7_919 + 1) % (1 << 62)


def _surface_job(args) -> SurfaceSummary:
    (p_listed, idx, cfg_seed, mode, z_variant, step) = args
    notes = []
    p = p_listed
    advances = 0
    bump = 0
    while True:
        seed_ij = _derive_seed(cfg_seed, p, idx) + bump
        try:
            s = random_surface(p, seed_ij, mode=mode)
            census = cycle_decomposition(s)
            break
        except (ExhaustedAttempts, NoRationalS, AmbiguousS) as exc:
            # A surface the sampler or its charts cannot serve is re-seeded and
            # noted; internal errors such as NonBijective propagate.
            notes.append(f"p={p} seed={seed_ij}: {type(exc).__name__}: {exc}")
            if bump < 3:
                bump += 1
                continue
            bump = 0
            advances += 1
            if advances > MAX_PRIME_ADVANCES:
                raise
            p = next_prime(p)
    curve = empirical_curve(census, z_variant, step)
    err = area_error(curve)
    return SurfaceSummary(
        prime_listed=p_listed,
        prime_used=p,
        index=idx,
        seed=seed_ij,
        total=census.total,
        fix_x=census.fix_x,
        fix_y=census.fix_y,
        sym_lengths=sorted(census.lengths(True)),
        asym_lengths=sorted(census.lengths(False)),
        w_x=len(degenerate_fibers(s, "x")),
        w_y=len(degenerate_fibers(s, "y")),
        windows=sanity_windows(s, census),
        area_error=err,
        curve=curve,
        notes=notes,
    )


def average_curves(curves: list[DistributionCurve]) -> DistributionCurve:
    """Pointwise unweighted mean of per-surface curves on a shared grid."""
    if not curves:
        raise BadDomain("no curves to average")
    xs = curves[0].xs
    for c in curves:
        if c.xs != xs:
            raise BadDomain("curves live on different grids")
    n = len(curves)
    values = tuple(sum(c.values[i] for c in curves) / n for i in range(len(xs)))
    z = sum(c.z for c in curves) / n
    return DistributionCurve(xs, values, z, curves[0].variant)


def definition_average_curve(summaries, step: float = DEFAULT_STEP) -> DistributionCurve:
    """Averaged curve in the definition scaling: cumulative mean P_t.

    The per-period fractions P_t are averaged across surfaces with equal
    weight, and one aggregate z = 2 <N> / <fix sum> is applied to the
    averaged sequence.
    """
    if not summaries:
        raise BadDomain("no summaries to average")
    fix_mean = sum(s.fix_x + s.fix_y for s in summaries) / len(summaries)
    n_mean = sum(s.total for s in summaries) / len(summaries)
    if fix_mean == 0:
        raise ZeroFixedPoints("definition scaling needs fixed points")
    z = 2.0 * n_mean / fix_mean
    pt_mean: dict[int, float] = {}
    for s in summaries:
        for length in s.sym_lengths + s.asym_lengths:
            pt_mean[length] = pt_mean.get(length, 0.0) + length / s.total
    weighted = [(t, frac / len(summaries)) for t, frac in pt_mean.items()]
    xs = make_grid(step)
    values = _cumulative(xs, z, weighted, 1.0)
    clipped = tuple(min(v, 1.0) for v in values)
    return DistributionCurve(xs, clipped, z, "definition")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Generate, decompose and aggregate per-prime surface pools.

    Deterministic for a fixed config: surface seeds are derived from
    (seed, prime, index), and aggregation order is fixed.  Surfaces whose
    generation or census fails at a listed prime advance to the next prime,
    mirroring the original experiment's footnote rule.
    """
    make_grid(config.grid_step)
    if config.count < 1:
        raise BadDomain(f"surface count {config.count} must be positive")
    jobs = [
        (p, i, config.seed, config.mode, config.z_variant, config.grid_step)
        for p in config.primes
        for i in range(config.count)
    ]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(_surface_job, jobs, chunksize=1))
    else:
        results = [_surface_job(j) for j in jobs]
    blocks = []
    for p in config.primes:
        summaries = [r for r in results if r.prime_listed == p]
        if config.z_variant == "definition":
            avg = definition_average_curve(summaries, config.grid_step)
        else:
            avg = average_curves([r.curve for r in summaries])
        blocks.append(PrimeBlock(
            prime=p,
            summaries=summaries,
            averaged_curve=avg,
            mean_area_error=sum(r.area_error for r in summaries) / len(summaries),
            averaged_area_error=area_error(avg),
            mean_symmetric_fraction=sum(
                r.symmetric_fraction for r in summaries) / len(summaries),
            windows_passed=all(r.windows.passed for r in summaries),
        ))
    return ExperimentReport(config, blocks)
