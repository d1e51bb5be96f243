"""Minimal exact sparse multivariate polynomials.

Just enough ring machinery for the blow-up computations: addition,
multiplication, substitution homomorphisms, and exact division.  No GCDs,
no factorization.  Coefficients live in a PrimeField or in QQ; exponents are
capped at 2**8 per variable, far above the degree-8 polynomials that occur.
"""

from __future__ import annotations

from .errors import (
    ArityMismatch,
    ExponentOverflow,
    InexactDivision,
    ZeroPolynomial,
)
from .field import QQ

_EXP_CAP = 1 << 8


class SparsePoly:
    """Immutable sparse polynomial over a fixed tuple of named variables."""

    __slots__ = ("domain", "vars", "terms", "_hash")

    def __init__(self, domain, variables, terms=None):
        self.domain = domain
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = domain.element(c)
                if c == domain.zero:
                    continue
                if len(exps) != len(self.vars):
                    raise ArityMismatch(
                        f"exponent tuple {exps} does not match variables {self.vars}"
                    )
                if any(e < 0 or e >= _EXP_CAP for e in exps):
                    raise ExponentOverflow(f"exponent vector {exps} out of range")
                clean[tuple(exps)] = c
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, domain, variables) -> "SparsePoly":
        return cls(domain, variables, {})

    @classmethod
    def constant(cls, domain, variables, c) -> "SparsePoly":
        variables = tuple(variables)
        return cls(domain, variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, domain, variables, name) -> "SparsePoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(domain, variables, {tuple(exps): domain.one})

    @classmethod
    def gens(cls, domain, variables):
        """The generator polynomials, in order; the usual ring-building helper."""
        variables = tuple(variables)
        return [cls.variable(domain, variables, n) for n in variables]

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check(self, other: "SparsePoly"):
        if self.vars != other.vars or self.domain is not other.domain:
            raise ArityMismatch("operands live in different polynomial rings")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.domain, self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        zero = self.domain.zero
        for e, c in other.terms.items():
            s = terms.get(e, zero) + c
            if s == zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        out = SparsePoly.__new__(SparsePoly)
        out.domain, out.vars, out.terms, out._hash = self.domain, self.vars, terms, None
        return out

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-self.domain.one)

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.domain, self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "SparsePoly":
        c = self.domain.element(c)
        if c == self.domain.zero:
            return SparsePoly.zero(self.domain, self.vars)
        out = SparsePoly.__new__(SparsePoly)
        out.domain, out.vars, out._hash = self.domain, self.vars, None
        out.terms = {e: v * c for e, v in self.terms.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        self._check(other)
        zero = self.domain.zero
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, zero) + c1 * c2
                if s == zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        for e in terms:
            if any(x >= _EXP_CAP for x in e):
                raise ExponentOverflow(f"product exponent {e} out of range")
        out = SparsePoly.__new__(SparsePoly)
        out.domain, out.vars, out.terms, out._hash = self.domain, self.vars, terms, None
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.domain, self.vars, self.domain.one)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.domain is other.domain
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- evaluation & substitution ---------------------------------------------

    def evaluate(self, values: dict):
        """Evaluate at a point given as {variable name: scalar}."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ArityMismatch(f"no value for variables {missing}")
        vals = [self.domain.element(values[v]) for v in self.vars]
        acc = self.domain.zero
        for exps, c in self.terms.items():
            t = c
            for v, e in zip(vals, exps):
                for _ in range(e):
                    t = t * v
            acc = acc + t
        return acc

    def substitute(self, images: dict) -> "SparsePoly":
        """Ring-homomorphism image; every variable needs an image polynomial.

        All images must share one target ring.  Exactness is inherited from
        the coefficient domain.
        """
        missing = [v for v in self.vars if v not in images]
        if missing:
            raise ArityMismatch(f"no image for variables {missing}")
        imgs = [images[v] for v in self.vars]
        target = imgs[0]
        for im in imgs:
            if not isinstance(im, SparsePoly):
                raise ArityMismatch("images must be SparsePoly in a common ring")
            target._check(im)
        out = SparsePoly.zero(target.domain, target.vars)
        # Cache powers: blow-up substitutions reuse small exponents heavily.
        powers: list[dict[int, SparsePoly]] = [dict() for _ in imgs]
        one = SparsePoly.constant(target.domain, target.vars, target.domain.one)

        def img_pow(i: int, e: int) -> SparsePoly:
            if e == 0:
                return one
            cached = powers[i].get(e)
            if cached is None:
                cached = img_pow(i, e - 1) * imgs[i]
                powers[i][e] = cached
            return cached

        for exps, c in self.terms.items():
            term = SparsePoly.constant(target.domain, target.vars, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * img_pow(i, e)
            out = out + term
        return out

    def rename(self, domain, variables, mapping: dict) -> "SparsePoly":
        """Inject into a ring with different variable names via `mapping`."""
        variables = tuple(variables)
        idx = {n: variables.index(mapping[n]) for n in self.vars}
        terms = {}
        for exps, c in self.terms.items():
            out = [0] * len(variables)
            for n, e in zip(self.vars, exps):
                out[idx[n]] += e
            terms[tuple(out)] = c
        return SparsePoly(domain, variables, terms)

    def coefficient_of(self, name: str, power: int) -> "SparsePoly":
        """Coefficient of name**power, as a polynomial with the same variables."""
        i = self.vars.index(name)
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                e = list(exps)
                e[i] = 0
                terms[tuple(e)] = c
        return SparsePoly(self.domain, self.vars, terms)

    def derivative(self, name: str) -> "SparsePoly":
        i = self.vars.index(name)
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            k = e[i]
            e[i] = k - 1
            terms[tuple(e)] = c * k
        return SparsePoly(self.domain, self.vars, terms)

    # -- division ---------------------------------------------------------------

    def shift(self, name: str, t) -> "SparsePoly":
        """Substitute name -> name + t (t a scalar), exactly."""
        t = self.domain.element(t)
        if t == self.domain.zero:
            return self
        gens = {v: SparsePoly.variable(self.domain, self.vars, v) for v in self.vars}
        gens[name] = gens[name] + SparsePoly.constant(self.domain, self.vars, t)
        return self.substitute(gens)

    def vanishing_order(self, name: str, t) -> int:
        """Largest e with (name - t)**e dividing self exactly."""
        if self.is_zero():
            raise ZeroPolynomial("vanishing order of the zero polynomial")
        i = self.vars.index(name)
        shifted = self.shift(name, t)
        return min(e[i] for e in shifted.terms)

    def divide_linear_power(self, name: str, t, e: int) -> "SparsePoly":
        """Exact quotient by (name - t)**e; InexactDivision if not divisible."""
        if e == 0:
            return self
        if self.is_zero():
            return self
        i = self.vars.index(name)
        shifted = self.shift(name, t)
        if min(exp[i] for exp in shifted.terms) < e:
            raise InexactDivision(f"({name} - {t})^{e} does not divide the polynomial")
        terms = {}
        for exps, c in shifted.terms.items():
            exp = list(exps)
            exp[i] -= e
            terms[tuple(exp)] = c
        return SparsePoly(self.domain, self.vars, terms).shift(name, -self.domain.element(t))

    def divide_exact(self, divisor: "SparsePoly") -> "SparsePoly":
        """Single-divisor long division; raises InexactDivision on any remainder."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        if self.is_zero():
            return self
        lead_d = max(divisor.terms)  # lex order on exponent tuples
        cd = divisor.terms[lead_d]
        cd_inv = (1 / cd) if self.domain is QQ else cd.inv()
        rem = dict(self.terms)
        q_terms: dict = {}
        zero = self.domain.zero
        while rem:
            lead_r = max(rem)
            if any(a < b for a, b in zip(lead_r, lead_d)):
                raise InexactDivision("leading term not divisible")
            qe = tuple(a - b for a, b in zip(lead_r, lead_d))
            qc = rem[lead_r] * cd_inv
            q_terms[qe] = q_terms.get(qe, zero) + qc
            for e, c in divisor.terms.items():
                te = tuple(a + b for a, b in zip(qe, e))
                s = rem.get(te, zero) - qc * c
                if s == zero:
                    rem.pop(te, None)
                else:
                    rem[te] = s
        return SparsePoly(self.domain, self.vars, q_terms)

    # -- display -----------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps)
                if e
            ]
            body = "*".join(factors)
            cs = str(c)
            parts.append(cs if not body else (body if cs == "1" else f"{cs}*{body}"))
        return " + ".join(parts)

    __repr__ = __str__


def poly_substitute(f: SparsePoly, images: dict) -> SparsePoly:
    """Module-level alias for the substitution homomorphism."""
    return f.substitute(images)


def vanishing_order(f: SparsePoly, name: str, t) -> int:
    return f.vanishing_order(name, t)


def poly_divide_exact(f: SparsePoly, name: str, t, e: int) -> SparsePoly:
    return f.divide_linear_power(name, t, e)
