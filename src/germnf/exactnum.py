"""Exact scalar arithmetic over Q(i).

Everything downstream (series coefficients, eigenvalues, lattice
verification) runs on the types in this module.  There is no floating
point anywhere except inside certified interval evaluation: mpmath's
`libmpi` on (lo, hi) pairs of mpf endpoints, each rounded outward, and
therefore rigorous.  mpmath is imported on the first certified evaluation
(`libmpi()`), so a command that evaluates no interval never loads it.

The coefficient field is Q(i) only.  Eigenvalues like e^{i} that are not
Gaussian rationals are out of scope; fixtures use exactly representable
analogues such as (i, -i) or (3+4i)/5 instead.  One grammar serves both
input kinds, family coefficients and eigenvalues: `parse_parts` reads a
string into an integer triple with no Fraction built.
"""

from __future__ import annotations

import functools
import math
import os
import re as _re
import sys
from fractions import Fraction
from typing import NamedTuple

_PRECISION_ENV = "GERMNF_PRECISION_BITS"
_PRECISION_START = 64
_PRECISION_CAP = 1024
_HASH_MODULUS = sys.hash_info.modulus


class IndeterminateError(Exception):
    """Raised when interval evaluation cannot certify a result within the
    precision budget.  Never a wrong answer: callers must surface this as a
    third verdict, not swallow it."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (e.g. zero where a
    nonzero value is required)."""


def precision_cap() -> int:
    """Maximum interval mantissa bits, the one precision budget of every
    certified evaluation; GERMNF_PRECISION_BITS sets it within [64, 1024]."""
    try:
        value = int(os.environ.get(_PRECISION_ENV))
    except (TypeError, ValueError):  # unset or not an integer
        return _PRECISION_CAP
    return max(_PRECISION_START, min(value, _PRECISION_CAP))


def precision_ladder():
    """64 bits, doubling up to precision_cap()."""
    top = precision_cap()
    bits = _PRECISION_START
    while bits <= top:
        yield bits
        bits *= 2


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

# groups: real numerator and denominator; imaginary sign, numerator and denominator
_GAUSS_RE = _re.compile(
    r"^\s*(?:([+-]?\d+)(?:/(\d+))?(?=\s*(?:[+-]|$)))?\s*"
    r"(?:([+-]?)(?:(\d+)(?:/(\d+))?\s*\*\s*)?i)?\s*$",
    _re.ASCII,  # \d and \s: ASCII digits and whitespace only
)


def parse_parts(text: str) -> tuple[int, int, int]:
    """(a, b, d), d > 0 and not reduced, with text 'a/p+c/q*i' (optional
    parts; str() prints it) = (a + b*i)/d; ValueError otherwise or for a zero denominator."""
    m = _GAUSS_RE.match(text)
    if m is None or m.group(1) is None and m.group(3) is None:
        raise ValueError(f"cannot parse Gaussian rational: {text!r}")
    a, p, sign, c, q = m.groups()
    p, q = int(p or 1), int(q or 1)
    if not (p and q):
        raise ValueError(f"zero denominator in Gaussian rational: {text!r}")
    b = 0 if sign is None else int(c or 1) * (-1 if sign == "-" else 1)
    return int(a or 0) * q, b * p, p * q


class GaussianRational:
    """Element (a + b*i)/d of Q(i), held as the integers a, b and d in
    canonical form: d > 0, gcd(a, b, d) = 1, zero as 0/1.  A `series` jet
    keeps the same invariant, so a coefficient crosses between the two as
    its triple (`as_parts`, `from_parts`).  Arithmetic, `==` and `str` are
    integer operations, each result reduced by one 3-way gcd; `re`, `im`
    and `norm()` give exact Fractions.  The public constructor takes what
    Fraction takes for each part.  Immutable."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            d = math.lcm(re.denominator, im.denominator)
            a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    re = property(lambda self: Fraction(self._a, self._d), doc="Real part, an exact Fraction.")
    im = property(lambda self: Fraction(self._b, self._d), doc="Imaginary part, an exact Fraction.")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse 'a/b+c/d*i' with optional parts (`parse_parts`); inverse of str()."""
        return from_parts(*parse_parts(text))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def is_one(self) -> bool:
        return self._a == 1 and not self._b and self._d == 1

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other):
        c, e, f = as_parts(other)
        a, b, d = self._a, self._b, self._d
        return from_parts(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        c, e, f = as_parts(other)
        a, b, d = self._a, self._b, self._d
        return from_parts(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return from_parts(-self._a, -self._b, self._d)

    def __mul__(self, other):
        c, e, f = as_parts(other)
        a, b = self._a, self._b
        return from_parts(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c, e, f = as_parts(other)
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self._a * f, self._b * f
        return from_parts(a * c + b * e, b * c - a * e, self._d * n)

    def __rtruediv__(self, other):
        return from_parts(*as_parts(other)) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        """Square and multiply, with no product by 1 and no square past the
        top bit: z^1 costs nothing, z^2 one product."""
        if exponent < 0:
            return (1 / self) ** (-exponent)
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return ONE if result is None else result

    def conjugate(self) -> "GaussianRational":
        return from_parts(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- hashing / display ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._d == 1 and not self._b and self._a == other
        if isinstance(other, Fraction):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        """A real value hashes as the equal int or Fraction does (Python's
        numeric hash rule, with no Fraction built); others by (a, b, d)."""
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        if d == 1:
            return hash(a)
        h = hash(hash(abs(a)) * pow(d, -1, _HASH_MODULUS)) if d % _HASH_MODULUS else sys.hash_info.inf
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

    def __str__(self):
        return parts_str(self._a, self._b, self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_a, _set_b, _set_d = (getattr(GaussianRational, s).__set__ for s in GaussianRational.__slots__)
_new = object.__new__


def from_parts(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for integers a, b and d > 0, in canonical form."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def as_parts(value) -> tuple[int, int, int]:
    """(a, b, d) with value = (a + b*i)/d in canonical form, for a
    GaussianRational, an int or a Fraction."""
    if isinstance(value, GaussianRational):
        return value._a, value._b, value._d
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")


def parts_str(a: int, b: int, d: int) -> str:
    """str((a + b*i)/d) for integers a, b and d > 0, in lowest terms or not:
    each part is printed as its reduced fraction, so no canonical scalar
    has to be built first."""
    if not b:
        return _ratio_str(a, d)
    if not a:
        return f"{_ratio_str(b, d)}*i"
    return f"{_ratio_str(a, d)}{'+' if b > 0 else '-'}{_ratio_str(abs(b), d)}*i"


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# Integer factorization: trial division up to 2000, then Pollard-Brent
# splitting, with Miller-Rabin primality only where its bases prove it.
# No command factors: this and factor_gaussian and log_modulus below are the
# public API and the tests' oracle for the coprime-base routines they call.
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 2000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to all
# of _MR_BASES: below it the test is a proof of primality, from it on it is not
_MR_PROOF_LIMIT = 318665857834031151167461


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
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


def _pollard_brent(n: int) -> int:
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed % n or 1, seed % n or 1, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def _kth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Every returned prime is proven prime.  A cofactor of at least psi_12
    that passes Miller-Rabin cannot be told from a pseudoprime by the test,
    so it raises IndeterminateError instead of being reported as a prime."""
    if n < 1:
        raise DomainError("factor_int expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d <= _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            if m >= _MR_PROOF_LIMIT:
                raise IndeterminateError(
                    f"cannot prove {m} prime: it passes Miller-Rabin to bases "
                    f"{_MR_BASES[0]}..{_MR_BASES[-1]}, which is no proof from {_MR_PROOF_LIMIT} on"
                )
            out[m] = out.get(m, 0) + 1
            continue
        g = _least_root(m)  # rho needs about sqrt(p) steps to split p^k
        if g == m:
            g = _pollard_brent(m)
        stack.append(g)
        stack.append(m // g)
    return out


# ---------------------------------------------------------------------------
# Gaussian factorization over the primes above those factor_int finds
# ---------------------------------------------------------------------------


def _first_quadrant(a: int, b: int) -> tuple[int, int]:
    """The associate of a nonzero a + b*i with re > 0 and im >= 0 (an inert
    rational prime keeps its natural form, im = 0)."""
    while not (a > 0 and b >= 0):
        a, b = -b, a
    return a, b


def _sqrt_minus_one_mod(p: int) -> int:
    # p ≡ 1 (mod 4); k with k² ≡ -1 found from a quadratic non-residue
    for a in range(2, p):
        k = pow(a, (p - 1) // 4, p)
        if k * k % p == p - 1:
            return k
    raise AssertionError(f"no sqrt(-1) mod {p}")


def _split_prime(p: int) -> GaussianRational:
    """Canonical Gaussian prime b + c*i (b, c > 0, b^2 + c^2 = p) above a
    rational prime p ≡ 1 (mod 4): b is the first Euclidean remainder of p
    and sqrt(-1) mod p below sqrt(p) (Hermite-Serret)."""
    a, b = p, _sqrt_minus_one_mod(p)
    root = math.isqrt(p)
    while b > root:
        a, b = b, a % b
    c = math.isqrt(p - b * b)
    if b * b + c * c != p:
        raise AssertionError(f"Euclid did not split {p}")
    return GaussianRational(b, c)


class GaussianFactorization(NamedTuple):
    """z = i^unit_exp * prod(prime^exponent) over canonical Gaussian primes."""

    unit_exp: int
    factors: tuple[tuple[GaussianRational, int], ...]

    def value(self) -> GaussianRational:
        num = den = ONE  # Gaussian integers, multiplied apart
        for q, e in self.factors:
            if e > 0:
                num = num * q ** e
            else:
                den = den * q ** -e
        return I_UNIT ** (self.unit_exp % 4) * num / den


_ONE_PLUS_I = GaussianRational(1, 1)
_UNIT_EXP = {ONE: 0, I_UNIT: 1, -ONE: 2, -I_UNIT: 3}  # i^t -> t


def _rational_primes(z: GaussianRational) -> list[int]:
    """The primes of a^2 + b^2 and of d for z = (a + b*i)/d, ascending (`factor_int`)."""
    return sorted({*factor_int(z._a ** 2 + z._b ** 2), *factor_int(z._d)})


def factor_gaussian(z: GaussianRational) -> GaussianFactorization:
    """Exact factorization of a nonzero Gaussian rational over canonical
    Gaussian primes (first quadrant associates; inert primes kept as-is),
    sorted by (norm, a, b).  Negative exponents carry the denominator part.
    It is `base_factorization` over the primes above each p of
    `_rational_primes`: 1 + i for 2, p for p ≡ 3 (mod 4), `_split_prime(p)`
    and its conjugate for p ≡ 1 (mod 4); its check, with unique
    factorization in Z[i], pins every exponent."""
    if z.is_zero():
        raise DomainError("cannot factor zero")
    base = []
    for p in _rational_primes(z):
        if p == 2:
            base.append(_ONE_PLUS_I)
        elif p % 4 == 3:
            base.append(GaussianRational(p))
        else:
            pi = _split_prime(p)
            base += [pi, GaussianRational(*_first_quadrant(pi._a, -pi._b))]
    base.sort(key=lambda q: (q._a ** 2 + q._b ** 2, q._a, q._b))
    return base_factorization(z, tuple(base))


# ---------------------------------------------------------------------------
# Log-modulus coordinates over pairwise-coprime integers
# ---------------------------------------------------------------------------


class LogModulusVector(NamedTuple):
    """ln|z| written as sum(coords[q] * ln q) with exact rational coords,
    over pairwise-coprime integers q > 1, as `base_log_modulus` gives it:
    rational primes (log_modulus, the oracle) or the elements of an integer
    coprime base (what every command uses).

    coords[q] is half the exponent of q in the norm |z|^2, so entries may be
    half-integers.  Exactness invariant: prod(q^(2*coords[q])) == |z|^2.
    The ln q are linearly independent over Q: a rational relation would
    make a product of powers of pairwise-coprime integers > 1 equal to 1,
    and a prime dividing one of them divides no other.  So a vector is the
    zero number only when it has no coordinate, over either kind of q.
    """

    coords: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_dict(d: dict[int, Fraction]) -> "LogModulusVector":
        return LogModulusVector(tuple(sorted((p, c) for p, c in d.items() if c != 0)))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "LogModulusVector") -> "LogModulusVector":
        d = self.as_dict()
        for p, c in other.coords:
            d[p] = d.get(p, 0) + c
        return LogModulusVector.from_dict(d)

    def scale(self, s) -> "LogModulusVector":
        s = Fraction(s)
        if s == 0:
            return LogModulusVector(())
        return LogModulusVector(tuple((p, c * s) for p, c in self.coords))

    def squared_exp(self) -> Fraction:
        """exp(2 * value) as an exact rational (2*coords are integers here
        only when the vector came from a single log_modulus; general scales
        may make this fractional, in which case a DomainError is raised)."""
        acc = Fraction(1)
        for p, c in self.coords:
            e = 2 * c
            if e.denominator != 1:
                raise DomainError("squared_exp needs half-integer coordinates")
            acc *= Fraction(p) ** int(e)
        return acc

    def sign(self) -> int:
        """Exact sign of the represented real number sum(c_p ln p).

        With L the lcm of the denominators of the c_p, the sum has the sign
        of prod p^(L c_p) - 1, so one comparison of the integer products of
        the positive and the negative part decides it, with no interval and
        no precision budget.  Those integers are prod p^(L |c_p|): about
        |z|^2 for ln|z| or a rational rescaling of it, the forms every
        caller passes."""
        common = math.lcm(*(c.denominator for _, c in self.coords))
        num = den = 1
        for p, c in self.coords:
            e = c.numerator * (common // c.denominator)
            if e > 0:
                num *= p**e
            else:
                den *= p**-e
        return (num > den) - (num < den)


def log_modulus(z: GaussianRational) -> LogModulusVector:
    """ln|z| as an exact rational vector over {ln p}: `base_log_modulus`
    over the primes of `_rational_primes`, the oracle for the integer
    coprime bases below."""
    if z.is_zero():
        raise DomainError("log_modulus of zero")
    return base_log_modulus(z, tuple(_rational_primes(z)))


# ---------------------------------------------------------------------------
# Coprime bases: the eigen layer factors over these, with gcds only
# ---------------------------------------------------------------------------


def _gaussian_gcd(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """A gcd of a + b*i and c + d*i: Euclid in Z[i] with each quotient
    rounded to the nearest Gaussian integer, so each remainder has at most
    half its divisor's norm."""
    while c or d:
        n = c * c + d * d
        x, y = a * c + b * d, b * c - a * d  # (a + b*i)(c - d*i), n times the quotient
        qa, qb = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
        a, b, c, d = c, d, a - qa * c + qb * d, b - qa * d - qb * c
    return a, b


def _quotient(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a + b*i) / (c + d*i) for a divisor c + d*i of a + b*i."""
    n = c * c + d * d
    return (a * c + b * d) // n, (b * c - a * d) // n


def coprime_base(values) -> tuple[tuple[int, int], ...]:
    """A coprime base of nonzero Gaussian integers given as pairs (a, b):
    pairwise-coprime non-units in first-quadrant form, sorted by (norm, a,
    b), such that each value is a unit times a product of their powers.
    gcds only, no factoring (D. J. Bernstein, J. Algorithms 54, 2005, has a
    fast version; these sets are small).  A pending element is coprime to a
    kept one when their norms are; else a kept element sharing a non-unit
    gcd g with it is replaced by g and both cofactors, all pending again.
    Each split divides the norm product of all elements by N(g) > 1, so the
    loop ends.  Rational values (n, 0) give a base in Z."""
    kept: list[tuple[int, int]] = []
    pending = list(values)
    while pending:
        a, b = pending.pop()
        norm = a * a + b * b
        if norm == 1:
            continue
        if not norm:
            raise DomainError("a coprime base of zero")
        a, b = _first_quadrant(a, b)
        for j, (c, d) in enumerate(kept):
            if math.gcd(norm, c * c + d * d) == 1:
                continue
            g = _gaussian_gcd(a, b, c, d)
            if g[0] ** 2 + g[1] ** 2 > 1:
                del kept[j]
                pending += [g, _quotient(c, d, *g), _quotient(a, b, *g)]
                break
        else:
            kept.append((a, b))
    return tuple(sorted(kept, key=lambda q: (q[0] ** 2 + q[1] ** 2, q)))


@functools.cache
def _primes_to(limit: int) -> tuple[int, ...]:
    """The primes up to `limit`."""
    primes: list[int] = []
    for k in range(2, limit + 1):
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
    return tuple(primes)


def _least_root(n: int) -> int:
    """The least r with r^k = n for some k >= 1, for n >= 2: an integer
    k-th root for every prime k up to the bit length, a root taken again at
    the same k."""
    for k in _primes_to(n.bit_length()):
        while True:
            r = _kth_root(n, k)
            if r**k != n:
                break
            n = r
    return n


def gaussian_coprime_base(values) -> tuple[GaussianRational, ...]:
    """coprime_base of the numerator a + b*i and the denominator d of each
    nonzero (a + b*i)/d in `values`."""
    pairs = [(z._a, z._b) for z in values] + [(z._d, 0) for z in values]
    return tuple(from_parts(a, b, 1) for a, b in coprime_base(pairs))


def integer_coprime_base(values) -> tuple[int, ...]:
    """coprime_base, in Z, of a^2 + b^2 and d for each nonzero (a + b*i)/d
    in `values`, each element then replaced by its least root (so that a
    prime power gives its prime), ascending."""
    ints = [(z._a ** 2 + z._b ** 2, 0) for z in values] + [(z._d, 0) for z in values]
    return tuple(sorted(_least_root(a) for a, _ in coprime_base(ints)))


def _divide_all(g: GaussianRational, q: GaussianRational) -> tuple[GaussianRational, int]:
    """(g / q^e, e) for the largest e with q^e dividing the nonzero Gaussian
    integer g: each division by q = c + d*i is g * (c - d*i) / N(q)."""
    a, b, c, d = g._a, g._b, q._a, q._b
    n, e = c * c + d * d, 0
    if math.gcd(a * a + b * b, n) == 1:
        return g, 0
    while True:
        x, y = a * c + b * d, b * c - a * d
        if x % n or y % n:
            return GaussianRational(a, b), e
        a, b, e = x // n, y // n, e + 1


def base_factorization(z: GaussianRational, base: tuple[GaussianRational, ...]) -> GaussianFactorization:
    """z = i^t * prod(q^e) over a Gaussian coprime base that holds every
    non-unit factor of z's numerator and denominator.  The undivided
    remainders must be units and the product must give z back, or this
    raises AssertionError."""
    if z.is_zero():
        raise DomainError("cannot factor zero")
    num, den = GaussianRational(z._a, z._b), GaussianRational(z._d)
    factors = []
    for q in base:
        num, e = _divide_all(num, q)
        den, f = _divide_all(den, q)
        if e != f:
            factors.append((q, e - f))
    if num.norm() != 1 or den.norm() != 1:
        raise AssertionError("non-unit remainder over the coprime base")
    result = GaussianFactorization((_UNIT_EXP[num] - _UNIT_EXP[den]) % 4, tuple(factors))
    if result.value() != z:
        raise AssertionError("base factorization failed re-multiplication check")
    return result


def base_log_modulus(z: GaussianRational, base: tuple[int, ...]) -> LogModulusVector:
    """ln|z| = ln(a^2 + b^2) / 2 - ln d for z = (a + b*i)/d, over an integer
    coprime base that holds every factor > 1 of a^2 + b^2 and d:
    coords[q] = v_q(a^2 + b^2) / 2 - v_q(d).  The undivided remainders must
    be 1 and squared_exp() must give |z|^2 back, or this raises
    AssertionError."""
    if z.is_zero():
        raise DomainError("log_modulus of zero")
    norm, den = z._a ** 2 + z._b ** 2, z._d
    coords: dict[int, Fraction] = {}
    for q in base:
        e = f = 0
        while norm % q == 0:
            norm //= q
            e += 1
        while den % q == 0:
            den //= q
            f += 1
        if e or f:
            coords[q] = Fraction(e, 2) - f
    if norm != 1 or den != 1:
        raise AssertionError("remainder > 1 over the integer coprime base")
    vector = LogModulusVector.from_dict(coords)
    if vector.squared_exp() != z.norm():
        raise AssertionError("log-modulus vector failed the squared-modulus check")
    return vector


# ---------------------------------------------------------------------------
# Certified enclosures: mpmath's (lo, hi) intervals, rounded outward
# ---------------------------------------------------------------------------


@functools.cache
def libmpi():
    """mpmath.libmp.libmpi, imported on the first call: the interval
    operations (mpi_add, mpi_mul, ...) on (lo, hi) pairs of mpf endpoints,
    lo rounded down and hi up, and the mpf primitives they use."""
    from mpmath.libmp import libmpi as module

    return module


def rational_interval(q: Fraction, prec: int):
    """Enclosure of a rational at `prec` bits."""
    mpi = libmpi()
    num, den = mpi.from_int(q.numerator), mpi.from_int(q.denominator)
    return mpi.mpi_div((num, num), (den, den), prec)


def log_interval(n: int, prec: int):
    """Enclosure of ln n for an integer n >= 1."""
    mpi = libmpi()
    x = mpi.from_int(n)
    return mpi.mpi_log((x, x), prec)


def atan_interval(t: Fraction, prec: int):
    """Enclosure of atan t: t enclosed with 8 guard bits, then atan, which
    is increasing."""
    return libmpi().mpi_atan(rational_interval(t, prec + 8), prec)


def interval_sign(iv) -> int:
    """+1/-1 when the enclosure excludes zero, 0 when it does not."""
    sign = libmpi().mpf_sign
    return 1 if sign(iv[0]) > 0 else -1 if sign(iv[1]) < 0 else 0


# ---------------------------------------------------------------------------
# Certified rounding of angle combinations
# ---------------------------------------------------------------------------


class TurnSum(NamedTuple):
    """A real number given in 'turns': rational + sum(c * atan(t)) / (2*pi).

    Principal arguments of Gaussian rationals decompose into this shape with
    all atan arguments t in (0, 1), which keeps the symbol set canonical.
    """

    rational: Fraction
    atan_terms: tuple[tuple[Fraction, Fraction], ...]

    def __add__(self, other: "TurnSum") -> "TurnSum":
        terms: dict[Fraction, Fraction] = {}
        for c, t in self.atan_terms + other.atan_terms:
            terms[t] = terms.get(t, Fraction(0)) + c
        cleaned = tuple(sorted((c, t) for t, c in terms.items() if c != 0))
        return TurnSum(self.rational + other.rational, cleaned)

    def scale(self, s) -> "TurnSum":
        s = Fraction(s)
        if s == 0:
            return TurnSum(Fraction(0), ())
        return TurnSum(self.rational * s, tuple((c * s, t) for c, t in self.atan_terms))

    def shift(self, r) -> "TurnSum":
        return TurnSum(self.rational + Fraction(r), self.atan_terms)


def principal_arg_turns(z: GaussianRational) -> TurnSum:
    """Arg(z) / (2*pi) with Arg principal in (-pi, pi]."""
    if z.is_zero():
        raise DomainError("argument of zero")
    re, im = z.re, z.im
    if im == 0:
        return TurnSum(Fraction(0) if re > 0 else Fraction(1, 2), ())
    if re == 0:
        return TurnSum(Fraction(1, 4) if im > 0 else Fraction(-1, 4), ())
    a, b = abs(re), abs(im)
    # acute reference angle in turns, with atan argument reduced into (0, 1)
    if a == b:
        acute = TurnSum(Fraction(1, 8), ())
    elif b < a:
        acute = TurnSum(Fraction(0), ((Fraction(1), b / a),))
    else:
        acute = TurnSum(Fraction(1, 4), ((Fraction(-1), a / b),))
    if re > 0 and im > 0:
        return acute
    if re < 0 and im > 0:
        return acute.scale(-1).shift(Fraction(1, 2))
    if re < 0 and im < 0:
        return acute.shift(Fraction(-1, 2))
    return acute.scale(-1)


def certified_round_to_integer(ts: TurnSum) -> int:
    """Round a TurnSum known to be an exact integer, with certification.

    The returned K satisfies |value - K| < 1/4, certified by interval
    enclosure.  Precision escalates (64 doubling to the cap) and the result
    is independent of which precision level first certifies.  Exhausting the
    budget raises IndeterminateError; a wrong integer is never returned.
    """
    if not ts.atan_terms:
        if ts.rational.denominator != 1:
            raise DomainError(
                f"value {ts.rational} is provably not an integer; caller precondition violated"
            )
        return int(ts.rational)
    mpi = libmpi()
    two, quarter = mpi.from_int(2), mpi.from_man_exp(1, -2)
    for prec in precision_ladder():
        inv_two_pi = mpi.mpi_div((mpi.fone, mpi.fone), mpi.mpi_mul(mpi.mpi_pi(prec), (two, two), prec), prec)
        lo, hi = rational_interval(ts.rational, prec)
        for c, t in ts.atan_terms:
            turns = mpi.mpi_mul(atan_interval(t, prec), inv_two_pi, prec)
            lo, hi = mpi.mpi_add((lo, hi), mpi.mpi_mul(turns, rational_interval(c, prec), prec), prec)
        # exact mpf sums: the nearest integer to the midpoint, then |x - k| < 1/4 at both ends
        k = mpi.to_int(mpi.mpf_shift(mpi.mpf_add(lo, hi), -1), mpi.round_nearest)
        kf = mpi.from_int(k)
        if mpi.mpf_gt(lo, mpi.mpf_sub(kf, quarter)) and mpi.mpf_lt(hi, mpi.mpf_add(kf, quarter)):
            return k
    raise IndeterminateError("certified rounding exhausted its precision budget")
