"""Inside a blow-up chart: divided quadratics, line parameters, and the
branch form on the exceptional fiber.

Run:  python demos/03_blowup_charts.py
"""

from wehlerk3 import PrimeField, degenerate_fibers, point2
from wehlerk3.blowup import (
    build_chart,
    exceptional_points,
    ramification_prime,
    resolve_s,
    sigma_extended,
)
from wehlerk3.fixtures import w1_surface

s = w1_surface(29)
F = PrimeField(29)

infos = degenerate_fibers(s, "x")
print("degenerate fibers of the first projection:")
for d in infos:
    print("  ", d.base, f"({d.kind})")

# Chart at the first center.  Along the pencil of lines through it, G/H vanish
# on the exceptional fiber to order e in eps = w - t1, the coordinate along
# each line; dividing by eps^e makes them usable again.
center = point2(F, -1, -1, 1)
chart = build_chart(s, "x", center)
print(f"\nchart at {center}: division exponent e = {chart.e}, "
      f"dehomogenized at index {chart.dehom_index}")

# Each fiber point sits on exactly one line through the center.
y = point2(F, 1, 0, 1)
line = resolve_s(chart, y)
print(f"line parameter of {y}: {line}")

# The extended involution swaps the two points on each line.
eps = exceptional_points(chart)
print(f"boundary points: {len(eps)}")
bp = next(b for b in eps if b.moving == y)
out = sigma_extended(chart, bp)
print(f"swap on line {bp.s}: {bp.moving} <-> {out.moving}")

# The branch form on the exceptional fiber: a binary form of degree <= 6
# whose rational zeros mark the lines with a single doubled point.  The
# spurious power of s0 picked up by the pencil parametrization is divided
# out and reported.
rp = ramification_prime(chart)
print(f"\nbranch form coefficients (s0^k s1^(d-k)): {rp.form.coeffs}")
print(f"s0 power stripped: {rp.s0_stripped}")
print(f"rational zeros: {rp.rational_roots() or 'none -> no fixed boundary points'}")

fixed = [b for b in eps if sigma_extended(chart, b).moving == b.moving]
print(f"fixed boundary points on this chart: {len(fixed)}")
