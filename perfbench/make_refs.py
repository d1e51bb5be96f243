"""Regenerate perfbench/refs.json from the current package.

    python3 perfbench/make_refs.py pools   # surface pools with draw counts (slow)
    python3 perfbench/make_refs.py refs    # outputs and counts of the reference seeds

The pools list degenerate-mode surface seeds with their exact draw counts
and census digests; the degenerate_p101 and orbit_scalar workloads draw
their surfaces from them.  The reference section stores, for the default and
the held-out seed, the digest of every op and the traced run's counts.  Run
it only when the package's results are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"

# Pool sizes per prime: large enough that every scheduled quantile has
# several pool entries close to it.
POOL_SEEDS = {13: 48, 101: 160}


def load() -> dict:
    return json.loads(REFS.read_text()) if REFS.exists() else {}


def save(refs: dict):
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def build_pool(p: int, n: int):
    """(entries, excluded) for surface seeds 0..n-1 in degenerate mode."""
    from wehlerk3 import surface
    from wehlerk3.errors import WehlerError
    from workloads import census_digest, count_draws, degenerate_job

    entries, excluded = [], []
    for sd in range(n):
        # Count the draws of the first run by its smoothness tests; the
        # bisection in count_draws then checks that count exactly.
        calls = [0]
        orig = surface.is_smooth_rational

        def counted(s, _orig=orig):
            calls[0] += 1
            return _orig(s)

        surface.is_smooth_rational = counted
        try:
            _, census = degenerate_job(p, sd)
        except WehlerError as exc:
            excluded.append({"seed": sd, "error": f"{type(exc).__name__}: {exc}"})
            continue
        finally:
            surface.is_smooth_rational = orig
        draws = count_draws(p, sd, "degenerate", hint=calls[0])
        entries.append({"seed": sd, "draws": draws, "digest": census_digest(census)})
        print(f"p={p} seed={sd} draws={draws}", file=sys.stderr, flush=True)
    return entries, excluded


def make_pools(refs: dict):
    for p, n in POOL_SEEDS.items():
        entries, excluded = build_pool(p, n)
        refs.setdefault("pools", {})[f"degenerate_p{p}"] = entries
        refs.setdefault("pool_excluded", {})[f"degenerate_p{p}"] = excluded
        save(refs)


def make_refs(refs: dict):
    import bench
    from workloads import FULL, REFERENCE_SEEDS, WORKLOADS, ref_key

    out = {}
    for name in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            digests, counts = bench.reference_outputs(name, seed, FULL, refs["pools"])
            out.setdefault(ref_key(name, FULL), {})[str(seed)] = {
                "digests": digests, "counts": counts}
            print(f"{name} seed={seed}: {counts}", file=sys.stderr, flush=True)
    refs["outputs"] = out
    save(refs)


def main(argv):
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    refs = load()
    if argv[1:] == ["pools"]:
        make_pools(refs)
    elif argv[1:] == ["refs"]:
        make_refs(refs)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
