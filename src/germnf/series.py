"""Truncated multivariate formal power series over Q(i).

A series is a jet: terms of total degree > D are discarded by every
operation.  The truncation degree is fixed per computation at parse time;
mixing degrees or dimensions raises UsageError rather than coercing.

Storage is sparse (exponent tuple -> coefficient) because normal forms are
supported on resonant monomials only.  Canonical term order everywhere is
graded lexicographic: ascending total degree, then x1 before x2 before ...
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .exactnum import DomainError, GaussianRational, ZERO, ONE

MultiIndex = tuple[int, ...]


class UsageError(ValueError):
    """Structural misuse: mismatched dimensions/degrees, bad indices."""


def grlex_key(exponents: MultiIndex):
    return (sum(exponents), tuple(-e for e in exponents))


def _as_coeff(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"bad coefficient type {type(value).__name__}")


class TruncatedSeries:
    """Jet of a formal power series in n variables modulo degree > D."""

    __slots__ = ("n", "degree", "_terms")

    def __init__(self, n: int, degree: int, terms: Mapping[MultiIndex, GaussianRational] | None = None):
        if n < 1:
            raise UsageError("dimension must be >= 1")
        if degree < 0:
            raise UsageError("truncation degree must be >= 0")
        self.n = n
        self.degree = degree
        clean: dict[MultiIndex, GaussianRational] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != n:
                    raise UsageError(f"exponent {exp} has wrong arity for n={n}")
                if any(e < 0 for e in exp):
                    raise UsageError(f"negative exponent in {exp}")
                if sum(exp) > degree:
                    continue
                coeff = _as_coeff(coeff)
                if not coeff.is_zero():
                    clean[exp] = coeff
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, degree: int) -> "TruncatedSeries":
        return TruncatedSeries(n, degree)

    @staticmethod
    def constant(value, n: int, degree: int) -> "TruncatedSeries":
        return TruncatedSeries(n, degree, {(0,) * n: _as_coeff(value)})

    @staticmethod
    def variable(index: int, n: int, degree: int) -> "TruncatedSeries":
        if not 0 <= index < n:
            raise UsageError(f"variable index {index} out of range")
        exp = tuple(1 if j == index else 0 for j in range(n))
        return TruncatedSeries(n, degree, {exp: ONE})

    @staticmethod
    def monomial(exponents: MultiIndex, coeff, degree: int) -> "TruncatedSeries":
        return TruncatedSeries(len(exponents), degree, {tuple(exponents): _as_coeff(coeff)})

    # -- basic queries -------------------------------------------------------

    def coeff(self, exponents: MultiIndex) -> GaussianRational:
        return self._terms.get(tuple(exponents), ZERO)

    def items(self) -> list[tuple[MultiIndex, GaussianRational]]:
        """Terms in graded-lex order (the canonical iteration order)."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

    def support(self) -> list[MultiIndex]:
        return [exp for exp, _ in self.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> GaussianRational:
        return self.coeff((0,) * self.n)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.n == other.n and self.degree == other.degree and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, self.degree, tuple(self.items())))

    # -- ring operations -----------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.n != other.n or self.degree != other.degree:
            raise UsageError(
                f"series mismatch: (n={self.n}, D={self.degree}) vs (n={other.n}, D={other.degree})"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        terms = dict(self._terms)
        for exp, c in other._terms.items():
            acc = terms.get(exp, ZERO) + c
            if acc.is_zero():
                terms.pop(exp, None)
            else:
                terms[exp] = acc
        out = TruncatedSeries(self.n, self.degree)
        out._terms = terms
        return out

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        out = TruncatedSeries(self.n, self.degree)
        out._terms = {exp: -c for exp, c in self._terms.items()}
        return out

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        limit = self.degree
        terms: dict[MultiIndex, GaussianRational] = {}
        for ea, ca in self._terms.items():
            da = sum(ea)
            for eb, cb in other._terms.items():
                if da + sum(eb) > limit:
                    continue
                exp = tuple(x + y for x, y in zip(ea, eb))
                acc = terms.get(exp, ZERO) + ca * cb
                if acc.is_zero():
                    terms.pop(exp, None)
                else:
                    terms[exp] = acc
        out = TruncatedSeries(self.n, self.degree)
        out._terms = terms
        return out

    def scale(self, value) -> "TruncatedSeries":
        c = _as_coeff(value)
        if c.is_zero():
            return TruncatedSeries(self.n, self.degree)
        out = TruncatedSeries(self.n, self.degree)
        out._terms = {exp: coeff * c for exp, coeff in self._terms.items()}
        return out

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise UsageError("negative series powers are not defined here")
        result = TruncatedSeries.constant(1, self.n, self.degree)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    def shift_monomial(self, exponents: MultiIndex, coeff=1) -> "TruncatedSeries":
        """Multiply by coeff * x^exponents (with truncation)."""
        c = _as_coeff(coeff)
        shift = tuple(exponents)
        terms = {}
        for exp, v in self._terms.items():
            new = tuple(x + y for x, y in zip(exp, shift))
            if sum(new) <= self.degree:
                terms[new] = v * c
        out = TruncatedSeries(self.n, self.degree)
        out._terms = {e: c for e, c in terms.items() if not c.is_zero()}
        return out

    # -- jets ----------------------------------------------------------------

    def homogeneous_part(self, d: int) -> "TruncatedSeries":
        if d < 0 or d > self.degree:
            raise UsageError(f"homogeneous degree {d} outside [0, {self.degree}]")
        out = TruncatedSeries(self.n, self.degree)
        out._terms = {exp: c for exp, c in self._terms.items() if sum(exp) == d}
        return out

    def part_up_to(self, d: int) -> "TruncatedSeries":
        out = TruncatedSeries(self.n, self.degree)
        out._terms = {exp: c for exp, c in self._terms.items() if sum(exp) <= d}
        return out

    def truncate(self, new_degree: int) -> "TruncatedSeries":
        if new_degree > self.degree:
            raise UsageError("cannot raise the truncation degree of a jet")
        return TruncatedSeries(self.n, new_degree, self._terms)

    # -- composition and transcendental jets ----------------------------------

    def compose(self, components: Iterable["TruncatedSeries"]) -> "TruncatedSeries":
        """Jet of self(g1, ..., gn); each g must have zero constant term."""
        return compose_all([self], components)[0]

    def log1p(self) -> "TruncatedSeries":
        """log(1 + u) for a jet u with u(0) = 0."""
        if not self.constant_term().is_zero():
            raise DomainError("log1p requires zero constant term")
        result = TruncatedSeries(self.n, self.degree)
        power = TruncatedSeries.constant(1, self.n, self.degree)
        for t in range(1, self.degree + 1):
            power = power * self
            if power.is_zero():
                break
            sign = Fraction(1, t) if t % 2 else Fraction(-1, t)
            result = result + power.scale(sign)
        return result

    def exp0(self) -> "TruncatedSeries":
        """exp(w) for a jet w with w(0) = 0."""
        if not self.constant_term().is_zero():
            raise DomainError("exp0 requires zero constant term")
        result = TruncatedSeries.constant(1, self.n, self.degree)
        power = TruncatedSeries.constant(1, self.n, self.degree)
        fact = 1
        for t in range(1, self.degree + 1):
            power = power * self
            if power.is_zero():
                break
            fact *= t
            result = result + power.scale(Fraction(1, fact))
        return result

    # -- coordinate operations used by the real case --------------------------

    def conjugate_coeffs(self) -> "TruncatedSeries":
        out = TruncatedSeries(self.n, self.degree)
        out._terms = {exp: c.conjugate() for exp, c in self._terms.items()}
        return out

    def permute_variables(self, perm: tuple[int, ...]) -> "TruncatedSeries":
        """Substitute x_j -> x_{perm[j]}: exponent at slot perm[j] receives e_j."""
        if sorted(perm) != list(range(self.n)):
            raise UsageError("not a permutation")
        out = TruncatedSeries(self.n, self.degree)
        terms = {}
        for exp, c in self._terms.items():
            new = [0] * self.n
            for j, e in enumerate(exp):
                new[perm[j]] = e
            terms[tuple(new)] = c
        out._terms = terms
        return out

    def divide_by_variable(self, index: int) -> "TruncatedSeries":
        """Exact division by x_index; raises DomainError if any term lacks it.

        The quotient is returned at the same truncation degree (it is a
        polynomial of degree <= D - 1, so no information is invented)."""
        out_terms = {}
        for exp, c in self._terms.items():
            if exp[index] < 1:
                raise DomainError(f"term {exp} is not divisible by variable {index + 1}")
            new = tuple(e - 1 if j == index else e for j, e in enumerate(exp))
            out_terms[new] = c
        out = TruncatedSeries(self.n, self.degree)
        out._terms = out_terms
        return out

    # -- serialization ---------------------------------------------------------

    def to_term_list(self) -> list[dict]:
        return [
            {"exponents": list(exp), "coeff": str(c)}
            for exp, c in self.items()
        ]

    @staticmethod
    def from_term_list(terms: list[dict], n: int, degree: int) -> "TruncatedSeries":
        data = {}
        for entry in terms:
            exp = tuple(entry["exponents"])
            coeff = GaussianRational.parse(entry["coeff"])
            if exp in data:
                raise UsageError(f"duplicate exponent {exp} in term list")
            data[exp] = coeff
        return TruncatedSeries(n, degree, data)

    def __str__(self):
        if not self._terms:
            return "0"
        names = _variable_names(self.n)
        parts = []
        for exp, c in self.items():
            mono = "".join(
                f"{names[j]}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exp)
                if e
            )
            coeff_txt = str(c)
            if mono:
                if c.is_one():
                    parts.append(mono)
                elif c == GaussianRational(-1):
                    parts.append(f"-{mono}")
                else:
                    wrap = f"({coeff_txt})" if ("+" in coeff_txt[1:] or "-" in coeff_txt[1:]) else coeff_txt
                    parts.append(f"{wrap}*{mono}")
            else:
                parts.append(coeff_txt)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"<TruncatedSeries n={self.n} D={self.degree} {self}>"


def compose_all(
    targets: Iterable[TruncatedSeries], components: Iterable[TruncatedSeries]
) -> list[TruncatedSeries]:
    """Jets of t(g1, ..., gn) for every target t, substituting from one table
    of the powers g_k^e shared by all targets; each g must have zero
    constant term and the targets' degree."""
    comps = list(components)
    if not comps:
        raise UsageError("composition needs at least one component series")
    n, degree = comps[0].n, comps[0].degree
    for g in comps:
        if g.n != n or g.degree != degree:
            raise UsageError("composition component mismatch")
        if not g.constant_term().is_zero():
            raise DomainError("composition requires zero constant terms")
    powers = [[TruncatedSeries.constant(1, n, degree)] for _ in comps]
    out = []
    for target in targets:
        if target.n != len(comps):
            raise UsageError(f"composition needs {target.n} component series")
        if target.degree != degree:
            raise UsageError("composition component mismatch")
        result = TruncatedSeries(n, degree)
        for exp, c in target._terms.items():
            term = TruncatedSeries.constant(c, n, degree)
            for k, e in enumerate(exp):
                if e:
                    table = powers[k]
                    while len(table) <= e:
                        table.append(table[-1] * comps[k])
                    term = term * table[e]
                    if term.is_zero():
                        break
            result = result + term
        out.append(result)
    return out


def _variable_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{j + 1}" for j in range(n)]
