"""Exact arithmetic in prime fields F_p, plus the rational-number coefficient domain.

Everything downstream is generic over one of two coefficient domains: a
``PrimeField`` for odd word-sized primes, or the ``QQ`` singleton for exact
rationals, which hold example surfaces before reduction mod p.  Points and
surfaces store a domain's ``residue``s: ints in [0, p), or Fractions.
``FieldElement`` serves ``SparsePoly`` and the public fiber evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadModulus, ZeroInverse

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_WORD_LIMIT = 1 << 62


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond word size."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


class PrimeField:
    """The field F_p for an odd prime p.

    Instances are immutable and interned per modulus, so identity comparison
    of fields is safe and cheap.
    """

    _cache: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int) -> "PrimeField":
        if p in cls._cache:
            return cls._cache[p]
        if not isinstance(p, int) or p < 3 or p >= _WORD_LIMIT or p % 2 == 0 or not is_prime(p):
            raise BadModulus(f"modulus must be an odd word-sized prime, got {p!r}")
        self = super().__new__(cls)
        self.p = p
        cls._cache[p] = self
        return self

    # -- raw integer arithmetic (hot paths) --------------------------------

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.p}")
        return pow(a, self.p - 2, self.p)

    def sqrt(self, a: int) -> int | None:
        """Smaller square root of a mod p, or None for non-residues.

        sqrt(0) = 0.  Of the two roots r and p-r the smaller canonical
        residue is returned, so the output is reproducible.
        """
        return _tonelli(a % self.p, self.p)

    # -- element construction ----------------------------------------------

    def residue(self, v) -> int:
        """v as a canonical residue in [0, p): from an int, a Fraction or an element."""
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, FieldElement):
            if v.field is not self:
                raise ValueError("element belongs to a different field")
            return v.value
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroInverse(f"denominator of {v} vanishes mod {self.p}")
            return v.numerator * self.inv(v.denominator) % self.p
        return int(v) % self.p

    def element(self, v) -> "FieldElement":
        if isinstance(v, FieldElement) and v.field is self:
            return v
        return FieldElement(self.residue(v), self)

    __call__ = element

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def elements(self):
        return (FieldElement(v, self) for v in range(self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __reduce__(self):
        return (PrimeField, (self.p,))


def _tonelli(a: int, p: int) -> int | None:
    """Tonelli-Shanks; deterministic because the non-residue search is ordered."""
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


@dataclass(frozen=True)
class FieldElement:
    """A canonical residue in [0, p).  Immutable and hashable."""

    value: int
    field: PrimeField

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.field.p)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("mixed fields")
            return other
        return self.field.element(other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement((self.value + o.value) % self.field.p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement((self.value - o.value) % self.field.p, self.field)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.value * o.value % self.field.p, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.field.p, self.field)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return FieldElement(pow(self.value, n, self.field.p), self.field)

    def inv(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def sqrt(self) -> "FieldElement | None":
        r = self.field.sqrt(self.value)
        return None if r is None else FieldElement(r, self.field)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field is other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.p))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value}"


class _Rationals:
    """Coefficient domain of exact rationals (fixture verification only)."""

    p = None

    def element(self, v) -> Fraction:
        if isinstance(v, FieldElement):
            raise ValueError("cannot lift a finite-field element to QQ")
        return Fraction(v)

    __call__ = residue = element

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def inv(self, a):
        a = Fraction(a)
        if a == 0:
            raise ZeroInverse("0 has no inverse in QQ")
        return 1 / a

    def __repr__(self) -> str:
        return "QQ"

    def __reduce__(self):
        return (_rationals_singleton, ())


QQ = _Rationals()


def _rationals_singleton():
    return QQ


def field_inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse; raises ZeroInverse at 0."""
    return a.inv()


def field_sqrt(a: FieldElement) -> FieldElement | None:
    """Smaller square root of a, or None when a is a non-residue."""
    return a.sqrt()
