"""Canonical-form projective points over F_p or QQ.

Points hold plain residues, ints in [0, p) over F_p and Fractions over QQ,
with the first nonzero coordinate scaled to 1, so equality and hashing are
raw tuple comparisons.  Coordinates are plain numbers: `a[0] + 1` does not
wrap mod p, and points of two domains with equal coordinates compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import QQ


def _normalize(coords: tuple, domain) -> tuple:
    """Residues of `coords` (ints of any size, Fractions or elements), scaled to lead 1."""
    vals = tuple(map(domain.residue, coords))
    lead = next((v for v in vals if v), None)
    if lead is None:
        raise ValueError("projective point cannot have all coordinates zero")
    if lead == 1:
        return vals
    inv = domain.inv(lead)
    if domain is QQ:
        return tuple(v * inv for v in vals)
    return tuple(v * inv % domain.p for v in vals)


@dataclass(frozen=True)
class ProjectivePoint:
    """A projective point in canonical form (first nonzero coordinate = 1)."""

    coords: tuple

    @property
    def raw(self) -> tuple:
        """The coordinates: ints (F_p residues) or Fractions."""
        return self.coords

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self) -> str:
        return "(" + " : ".join(map(str, self.coords)) + ")"


class ProjectivePoint2(ProjectivePoint):
    """A point of P^2 in canonical form."""


class ProjectivePoint1(ProjectivePoint):
    """A point of P^1 in canonical form."""


def point2(domain, c0, c1, c2) -> ProjectivePoint2:
    return ProjectivePoint2(_normalize((c0, c1, c2), domain))


def point1(domain, c0, c1) -> ProjectivePoint1:
    return ProjectivePoint1(_normalize((c0, c1), domain))
