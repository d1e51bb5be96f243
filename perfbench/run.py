"""Run one benchmark workload against the package source of this checkout.

    python3 perfbench/run.py --workload census_p503 --seed 0 --seconds 30 --trace 0

Exits with code 2, printing no result, when the checkout has no src/wehlerk3.
See bench.py for what is measured.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "wehlerk3" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'wehlerk3'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
