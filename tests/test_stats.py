import json
import math

import pytest

from wehlerk3 import stats
from wehlerk3.dynamics import CycleCensus, CycleRecord, cycle_decomposition
from wehlerk3.errors import (
    AmbiguousS,
    BadDomain,
    NegativeX,
    NonBijective,
    NoRationalS,
    NoSymmetricCycles,
    PairingFailure,
    ZeroFixedPoints,
)
from wehlerk3.stats import (
    DistributionCurve,
    ExperimentConfig,
    area_error,
    average_curves,
    empirical_curve,
    limit_R,
    limit_R_area,
    make_grid,
    period_histogram,
    run_experiment,
    sanity_windows,
    symmetric_point_fraction,
)
from wehlerk3.surface import random_surface


def _fake_census(cycles, fix_x=0, fix_y=0):
    recs = [CycleRecord(length, sym, 0) for (length, sym) in cycles]
    total = sum(length for (length, _) in cycles)
    return CycleCensus(space=None, cycles=recs, fix_x=fix_x, fix_y=fix_y, total=total)


def test_limit_law_values():
    assert limit_R(0) == 0.0
    assert abs(limit_R(1) - (1 - 2 / math.e)) < 1e-15
    assert abs(limit_R(10) - 0.9995006007726127) < 1e-12
    with pytest.raises(NegativeX):
        limit_R(-0.1)


def test_limit_law_monotone_with_expected_slope():
    xs = make_grid()
    vals = [limit_R(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for i in range(1, len(xs)):
        slope = (vals[i] - vals[i - 1]) / (xs[i] - xs[i - 1])
        x_mid = 0.5 * (xs[i] + xs[i - 1])
        assert abs(slope - x_mid * math.exp(-x_mid)) <= 0.01


def test_limit_area_against_quadrature():
    # Simpson's rule at fine resolution as an independent quadrature oracle.
    n = 4000
    h = 10.0 / n
    acc = limit_R(0) + limit_R(10.0)
    for i in range(1, n):
        acc += (4 if i % 2 else 2) * limit_R(i * h)
    simpson = acc * h / 3
    assert abs(simpson - limit_R_area()) < 1e-9
    assert abs(limit_R_area() - (8 + 12 * math.exp(-10))) < 1e-14


def test_period_histogram_examples():
    one_cycle = _fake_census([(4, True)])
    assert period_histogram(one_cycle) == {4: 1.0}
    mix = _fake_census([(3, True), (3, False), (1, True)])
    hist = period_histogram(mix)
    assert hist == {1: 1 / 7, 3: 6 / 7}
    assert abs(sum(hist.values()) - 1) < 1e-15


def test_histogram_sums_to_one(w1_29):
    census = cycle_decomposition(w1_29)
    hist = period_histogram(census)
    assert abs(sum(hist.values()) - 1) < 1e-12


def test_symmetric_mean_curve_single_cycle():
    census = _fake_census([(6, True)], fix_x=1, fix_y=1)
    curve = empirical_curve(census, "symmetric-mean")
    assert curve.z == 6.0
    # jumps from 0 to 1 exactly at x = 1
    for x, v in zip(curve.xs, curve.values):
        assert v == (1.0 if x >= 1 else 0.0)


def test_definition_curve_scaling():
    cycles = [(10, True)] * 4 + [(30, False)] * 2
    census = _fake_census(cycles, fix_x=12, fix_y=8)
    curve = empirical_curve(census, "definition")
    assert curve.z == 2 * 100 / 20  # 2N / (fix_x + fix_y) = 10
    # by x=1 only the four 10-cycles are counted
    i = curve.xs.index(1.0)
    assert curve.values[i] == 40 / 100


def test_curve_error_cases():
    with pytest.raises(NoSymmetricCycles):
        empirical_curve(_fake_census([(3, False)]), "symmetric-mean")
    with pytest.raises(ZeroFixedPoints):
        empirical_curve(_fake_census([(3, False)]), "definition")
    with pytest.raises(ValueError):
        empirical_curve(_fake_census([(3, True)]), "nonsense")


def test_area_error_bounds():
    xs = make_grid()
    exact = DistributionCurve(xs, tuple(limit_R(x) for x in xs), 1.0, "definition")
    assert area_error(exact) <= 0.05
    zero = DistributionCurve(xs, tuple(0.0 for _ in xs), 1.0, "definition")
    assert area_error(zero) == 100.0
    with pytest.raises(BadDomain):
        area_error(DistributionCurve((0.0, 1.0), (0.0, 0.5), 1.0, "definition"))


@pytest.mark.parametrize("step,points", [(0.1, 101), (0.25, 41), (0.5, 21)])
def test_make_grid_reaches_grid_max(step, points):
    xs = make_grid(step)
    assert len(xs) == points and xs[0] == 0.0
    assert abs(xs[-1] - stats.GRID_MAX) <= 1e-9


@pytest.mark.parametrize("step", [0.3, 0.0, -0.1])
def test_a_bad_grid_step_fails_before_any_surface_is_drawn(monkeypatch, step):
    def no_draw(*args, **kwargs):
        raise AssertionError("random_surface was called")

    monkeypatch.setattr(stats, "random_surface", no_draw)
    with pytest.raises(BadDomain, match="grid step"):
        make_grid(step)
    with pytest.raises(BadDomain, match="grid step"):
        run_experiment(ExperimentConfig(count=1, primes=(29,), grid_step=step))


@pytest.mark.parametrize("count", [0, -2])
def test_a_non_positive_count_fails_before_any_surface_is_drawn(monkeypatch, count):
    def no_draw(*args, **kwargs):
        raise AssertionError("random_surface was called")

    monkeypatch.setattr(stats, "random_surface", no_draw)
    for variant in ("symmetric-mean", "definition"):
        with pytest.raises(BadDomain, match=f"surface count {count} must be positive"):
            run_experiment(ExperimentConfig(count=count, primes=(29,), z_variant=variant))


def test_curve_monotonicity_enforced():
    with pytest.raises(BadDomain):
        DistributionCurve((0.0, 1.0, 2.0), (0.5, 0.2, 0.6), 1.0, "definition")


def test_average_curves():
    xs = make_grid()
    c1 = DistributionCurve(xs, tuple(0.0 for _ in xs), 2.0, "symmetric-mean")
    c2 = DistributionCurve(xs, tuple(1.0 for _ in xs), 4.0, "symmetric-mean")
    avg = average_curves([c1, c2])
    assert all(v == 0.5 for v in avg.values)
    assert avg.z == 3.0


def test_sanity_windows_small_prime(w1_29):
    census = cycle_decomposition(w1_29)
    report = sanity_windows(w1_29, census)
    by_name = {c.name: c for c in report.checks}
    assert by_name["point_count_lower"].bound == 29 * 29 - 22 * 29 + 1 == 204
    assert by_name["point_count_lower"].passed
    # (p+1) - 20 sqrt(p) < 0 at p = 29: the lower check is not required
    assert not by_name["fix_x_lower"].required
    assert report.passed
    rows = report.rows()
    assert rows[0] == "check,bound,actual,slack,pass"


def test_sanity_windows_includes_degenerate_allowance():
    s = random_surface(29, seed=5, mode="degenerate")
    census = cycle_decomposition(s)
    report = sanity_windows(s, census)
    by_name = {c.name: c for c in report.checks}
    # one conic fiber per side on this surface: allowance 6 per chart
    assert by_name["fix_x_upper"].bound == 30 + 20 * math.sqrt(29) + 6
    assert report.passed


def test_symmetric_point_fraction(w1_29):
    census = cycle_decomposition(w1_29)
    frac = symmetric_point_fraction(census)
    assert 0 <= frac <= 1
    assert frac == sum(census.lengths(True)) / census.total


def test_experiment_determinism_and_shape(tmp_path):
    cfg = ExperimentConfig(count=2, primes=(29, 37), seed=7)
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    assert json.dumps(rep1.to_json_dict(), sort_keys=True) == json.dumps(
        rep2.to_json_dict(), sort_keys=True)
    rep1.write(tmp_path / "out")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [b["prime"] for b in report["blocks"]] == [29, 37]
    assert (tmp_path / "out" / "curve_p29.csv").exists()
    assert (tmp_path / "out" / "windows.csv").exists()
    # nondegenerate mode: no degenerate fibers anywhere
    for block in report["blocks"]:
        for srec in block["surfaces"]:
            assert srec["degenerate_fibers"] == [0, 0]
            assert srec["windows_passed"]


def test_experiment_threads_do_not_change_results():
    cfg1 = ExperimentConfig(count=2, primes=(29,), seed=3, threads=1)
    cfg2 = ExperimentConfig(count=2, primes=(29,), seed=3, threads=2)
    r1 = run_experiment(cfg1).to_json_dict()
    r2 = run_experiment(cfg2).to_json_dict()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_experiment_degenerate_mode():
    cfg = ExperimentConfig(count=2, primes=(29,), seed=11, mode="degenerate")
    rep = run_experiment(cfg)
    for srec in rep.blocks[0].summaries:
        assert srec.w_x + srec.w_y >= 1
        assert srec.windows.passed


def _fail_first_census(monkeypatch, exc):
    """Make the first census of a surface job raise exc."""
    calls = []

    def census(s):
        calls.append(s)
        if len(calls) == 1:
            raise exc("injected")
        return cycle_decomposition(s)

    monkeypatch.setattr(stats, "cycle_decomposition", census)


JOB = (13, 0, 1, "nondegenerate", "symmetric-mean", 0.1)


@pytest.mark.parametrize("exc", [NoRationalS, AmbiguousS])
def test_surface_job_reseeds_unservable_surfaces(monkeypatch, exc):
    _fail_first_census(monkeypatch, exc)
    summary = stats._surface_job(JOB)
    assert summary.seed == stats._derive_seed(1, 13, 0) + 1
    assert len(summary.notes) == 1 and exc.__name__ in summary.notes[0]


@pytest.mark.parametrize("exc", [NonBijective, PairingFailure])
def test_surface_job_propagates_internal_errors(monkeypatch, exc):
    _fail_first_census(monkeypatch, exc)
    with pytest.raises(exc):
        stats._surface_job(JOB)


def test_curves_saturate_past_the_longest_cycle(w1_29):
    census = cycle_decomposition(w1_29)
    for variant in ("symmetric-mean", "definition"):
        curve = empirical_curve(census, variant)
        longest = max(c.length for c in census.cycles
                      if variant == "definition" or c.symmetric)
        for x, v in zip(curve.xs, curve.values):
            if x * curve.z >= longest:
                assert v >= 1 - 1e-6


def test_definition_average_curve():
    from wehlerk3.stats import definition_average_curve
    cfg = ExperimentConfig(count=3, primes=(29,), seed=13, z_variant="definition")
    rep = run_experiment(cfg)
    block = rep.blocks[0]
    avg = definition_average_curve(block.summaries)
    assert avg.variant == "definition"
    assert avg.values[0] == 0.0
    assert avg.values[-1] >= 1 - 1e-9
    assert block.averaged_curve.values == avg.values
