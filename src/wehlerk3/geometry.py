"""Canonical-form projective points over F_p or QQ.

Points are stored with the first nonzero coordinate scaled to 1, so equality
and hashing are raw tuple comparisons.  That canonical form is what allows
the dynamics to index its phase space with plain dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import QQ, FieldElement


def _normalize(coords: tuple, domain) -> tuple:
    vals = tuple(domain.element(c) for c in coords)
    for v in vals:
        if v != 0:
            lead = v
            break
    else:
        raise ValueError("projective point cannot have all coordinates zero")
    if lead == domain.one:
        return vals
    inv = domain.inv(lead) if domain is QQ else lead.inv()
    return tuple(v * inv for v in vals)


def _raw(v) -> int | Fraction:
    return v.value if isinstance(v, FieldElement) else v


@dataclass(frozen=True)
class ProjectivePoint:
    """A projective point in canonical form (first nonzero coordinate = 1)."""

    coords: tuple

    @property
    def raw(self) -> tuple:
        """Coordinates as plain ints (F_p residues) or Fractions."""
        return tuple(_raw(c) for c in self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self) -> str:
        return "(" + " : ".join(str(_raw(c)) for c in self.coords) + ")"


class ProjectivePoint2(ProjectivePoint):
    """A point of P^2 in canonical form."""


class ProjectivePoint1(ProjectivePoint):
    """A point of P^1 in canonical form."""


def point2(domain, c0, c1, c2) -> ProjectivePoint2:
    return ProjectivePoint2(_normalize((c0, c1, c2), domain))


def point1(domain, c0, c1) -> ProjectivePoint1:
    return ProjectivePoint1(_normalize((c0, c1), domain))
