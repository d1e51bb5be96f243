"""Command-line front end.

Commands: points, cycles, experiment, verify-fixtures, random-surface.
Every command is deterministic given its flags and seed; exit codes are
0 (pass), 1 (a check failed), 2 (usage error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dynamics import asymmetric_pairing, cycle_decomposition, lift_pair, orbit
from .errors import WehlerError
from .field import is_prime
from .fixtures import (
    W1_DEGENERATE_X,
    w1_degenerate_centers,
    w1_orbit_points,
    w1_surface,
)
from .geometry import point2
from .involution import fiber_partner_oracle, sigma
from .stats import (
    EXPERIMENT_PRIMES,
    ExperimentConfig,
    point_count_lower,
    run_experiment,
    sanity_windows,
)
from .surface import (
    degenerate_fibers,
    parse_surface,
    point_count,
    serialize_surface,
    surface_pairs,
)


def _positive_arg(value: str) -> int:
    if not value.isdigit() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not a positive integer")
    return int(value)


def _prime_arg(value: str) -> int:
    p = _positive_arg(value)
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not an odd prime")
    return p


def _primes_arg(value: str) -> tuple:
    return tuple(_prime_arg(v) for v in value.split(","))


def _load_surface(path: str, p: int | None):
    with open(path) as fh:
        s = parse_surface(fh.read())
    if p is not None:
        if s.is_finite():
            if s.domain.p != p:
                raise WehlerError(
                    f"surface file is over F_{s.domain.p}, but --prime {p} given")
        else:
            s = s.reduce_mod(p)
    elif not s.is_finite():
        raise WehlerError("surface is over Q; pass --prime to reduce")
    return s


def _write_or_print(text: str, out: str | None, name: str):
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_points(args) -> int:
    s = _load_surface(args.surface, args.prime)
    p = s.domain.p
    n = point_count(s)
    bound = point_count_lower(p)
    ok = n >= bound
    points = surface_pairs(s).tolist()
    if args.format == "csv":
        rows = ["a0,a1,a2,b0,b1,b2"] + [",".join(map(str, r)) for r in points]
        _write_or_print("\n".join(rows) + "\n", args.out, f"points_p{p}.csv")
    else:
        payload = {
            "p": p,
            "count": n,
            "lower_bound": bound,
            "lower_bound_pass": ok,
            "points": points,
        }
        _write_or_print(json.dumps(payload, indent=2) + "\n", args.out,
                        f"points_p{p}.json")
    print(f"count = {n}, lower bound {bound}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_cycles(args) -> int:
    s = _load_surface(args.surface, args.prime)
    p = s.domain.p
    census = cycle_decomposition(s)
    pairing = asymmetric_pairing(census)
    windows = sanity_windows(s, census)
    ident = census.symmetric_count == (census.fix_x + census.fix_y) // 2
    for side in ("x", "y"):
        infos = degenerate_fibers(s, side)
        if infos:
            desc = ", ".join(f"{i.base} ({i.kind})" for i in infos)
            print(f"degenerate {side}-side fibers: {desc}")
    print(f"phase space: {census.total} points, fix_x = {census.fix_x}, "
          f"fix_y = {census.fix_y}")
    print(f"cycles: {len(census.cycles)} total, {census.symmetric_count} symmetric, "
          f"{census.asymmetric_count} asymmetric ({len(pairing) // 2} pairs)")
    print(f"sym_cycles == (fix_x+fix_y)/2 : {'PASS' if ident else 'FAIL'}")
    print(f"windows: {'PASS' if windows.passed else 'FAIL'}")
    if args.format == "csv":
        _write_or_print("\n".join(census.to_csv_rows()) + "\n", args.out,
                        f"cycles_p{p}.csv")
    else:
        _write_or_print(json.dumps(census.to_json_dict(), indent=2) + "\n",
                        args.out, f"cycles_p{p}.json")
    return 0 if (ident and windows.passed) else 1


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        count=args.count,
        primes=args.primes,
        seed=args.seed,
        mode=args.mode,
        z_variant=args.z_variant,
        grid_step=args.grid_step,
        threads=args.threads,
    )
    report = run_experiment(config)
    outdir = args.out or "experiment_out"
    report.write(outdir)
    print(f"wrote {outdir}/report.json and per-prime curve CSVs")
    ok = True
    for b in report.blocks:
        print(f"p={b.prime}: mean area error {b.mean_area_error:.2f}%, "
              f"symmetric fraction {b.mean_symmetric_fraction:.3f}, "
              f"windows {'PASS' if b.windows_passed else 'FAIL'}")
        ok = ok and b.windows_passed
    return 0 if ok else 1


def cmd_random_surface(args) -> int:
    from .surface import random_surface
    s = random_surface(args.prime, args.seed, mode=args.mode)
    text = serialize_surface(s)
    _write_or_print(text, args.out, f"surface_p{args.prime}_s{args.seed}.txt")
    return 0


def cmd_verify_fixtures(args) -> int:
    failures = []

    def check(name: str, ok: bool):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    wq = w1_surface()
    got = [d.base for d in degenerate_fibers(wq, "x")]
    check("degenerate x-fibers over Q == {(-1,-1,1), (1,1,1)}",
          got == w1_degenerate_centers())
    check("no degenerate y-fibers over Q", degenerate_fibers(wq, "y") == [])

    p = 29
    s = w1_surface(p)
    for raw in W1_DEGENERATE_X:
        center = point2(s.domain, *raw)
        found = any(d.base == center for d in degenerate_fibers(s, "x"))
        check(f"reduction of {raw} stays degenerate mod {p}", found)

    expected = w1_orbit_points(p)
    start = expected[0]
    orb = orbit(s, start, 8)
    got_pairs = [(P.a, P.b) for P in orb]
    want = [expected[i % 4] for i in range(9)]
    check("printed orbit reproduced for 8 steps (period 4)", got_pairs == want)

    census = cycle_decomposition(s)
    idx = census.space.index_of(lift_pair(s, *start))
    rec = census.cycles[int(census.cycle_id[idx])]
    check("orbit cycle has period 4 and is asymmetric",
          rec.length == 4 and not rec.symmetric)

    mism = 0
    invol = 0
    for P in census.space.points():
        if P.kind != "regular":
            continue
        for side in ("x", "y"):
            img = sigma(s, side, (P.a, P.b))
            if img != fiber_partner_oracle(s, side, (P.a, P.b)):
                mism += 1
            if sigma(s, side, img) != (P.a, P.b):
                invol += 1
    check(f"sigma == oracle on all regular points mod {p}", mism == 0)
    check(f"sigma o sigma == id on all regular points mod {p}", invol == 0)

    ident = census.symmetric_count == (census.fix_x + census.fix_y) // 2
    check("symmetric cycle count identity", ident)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wehlerk3",
        description="Involution dynamics of Wehler K3 surfaces over F_p",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_points = sub.add_parser("points", help="enumerate rational points")
    p_points.add_argument("--surface", required=True)
    p_points.add_argument("--prime", type=_prime_arg, default=None)
    p_points.add_argument("--format", choices=("csv", "json"), default="json")
    p_points.add_argument("--out", default=None)
    p_points.set_defaults(func=cmd_points)

    p_cycles = sub.add_parser("cycles", help="full cycle census")
    p_cycles.add_argument("--surface", required=True)
    p_cycles.add_argument("--prime", type=_prime_arg, default=None)
    p_cycles.add_argument("--format", choices=("csv", "json"), default="json")
    p_cycles.add_argument("--out", default=None)
    p_cycles.set_defaults(func=cmd_cycles)

    p_exp = sub.add_parser("experiment", help="multi-surface distribution experiment")
    p_exp.add_argument("--count", type=_positive_arg, default=10)
    p_exp.add_argument("--primes", type=_primes_arg, default=EXPERIMENT_PRIMES)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--mode", choices=("nondegenerate", "degenerate"),
                       default="nondegenerate")
    p_exp.add_argument("--z-variant", choices=("definition", "symmetric-mean"),
                       default="symmetric-mean")
    p_exp.add_argument("--grid-step", type=float, default=0.1)
    p_exp.add_argument("--threads", type=_positive_arg, default=1)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    p_rand = sub.add_parser("random-surface", help="emit a reproducible random surface")
    p_rand.add_argument("--prime", type=_prime_arg, required=True)
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--mode", choices=("nondegenerate", "degenerate", "any"),
                        default="nondegenerate")
    p_rand.add_argument("--out", default=None)
    p_rand.set_defaults(func=cmd_random_surface)

    p_ver = sub.add_parser("verify-fixtures", help="golden checks of the worked example")
    p_ver.set_defaults(func=cmd_verify_fixtures)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except WehlerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
