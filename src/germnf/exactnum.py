"""Exact scalar arithmetic over Q(i).

Everything downstream (series coefficients, eigenvalues, lattice
verification) runs on the types in this module.  There is no floating
point anywhere except inside the certified interval evaluator, whose
endpoints are directed-rounded and therefore rigorous.

The coefficient field is Q(i) only.  Eigenvalues like e^{i} that are not
Gaussian rationals are out of scope; fixtures use exactly representable
analogues such as (i, -i) or (3+4i)/5 instead.
"""

from __future__ import annotations

import math
import os
import re as _re
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    from_int,
    mpf_add,
    mpf_atan,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_sub,
    round_ceiling,
    round_floor,
)

_PRECISION_ENV = "GERMNF_PRECISION_BITS"
_PRECISION_START = 64
_PRECISION_CAP = 1024


class IndeterminateError(Exception):
    """Raised when interval evaluation cannot certify a result within the
    precision budget.  Never a wrong answer: callers must surface this as a
    third verdict, not swallow it."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (e.g. zero where a
    nonzero value is required)."""


def precision_cap() -> int:
    """Maximum interval mantissa bits; GERMNF_PRECISION_BITS caps it."""
    raw = os.environ.get(_PRECISION_ENV)
    if raw is None:
        return _PRECISION_CAP
    try:
        value = int(raw)
    except ValueError:
        return _PRECISION_CAP
    return max(_PRECISION_START, min(value, _PRECISION_CAP))


def precision_ladder(cap: int | None = None):
    top = precision_cap() if cap is None else cap
    bits = _PRECISION_START
    while bits <= top:
        yield bits
        bits *= 2


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

_RAT = r"[+-]?\d+(?:/\d+)?"
_GAUSS_RE = _re.compile(
    rf"^\s*(?:(?P<re>{_RAT})(?=\s*(?:[+-]|$)))?\s*"
    rf"(?:(?P<im>[+-]?(?:\d+(?:/\d+)?\s*\*\s*)?)i)?\s*$"
)


class GaussianRational:
    """Element a + b*i of Q(i) with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse 'a/b+c/d*i' with optional parts; inverse of str()."""
        m = _GAUSS_RE.match(text)
        if not m or (m.group("re") is None and m.group("im") is None):
            raise ValueError(f"cannot parse Gaussian rational: {text!r}")
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        im_raw = m.group("im")
        if im_raw is None:
            im_part = Fraction(0)
        else:
            im_raw = im_raw.replace("*", "").replace(" ", "")
            if im_raw in ("", "+"):
                im_part = Fraction(1)
            elif im_raw == "-":
                im_part = Fraction(-1)
            else:
                im_part = Fraction(im_raw)
        return GaussianRational(re_part, im_part)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if exponent < 0:
            return (GaussianRational(1) / self) ** (-exponent)
        result = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        return GaussianRational(1) / self

    def norm(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- hashing / display ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im_txt = f"{self.im}*i"
        if self.re == 0:
            return im_txt
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")


GR = GaussianRational
ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# Integer factorization: trial division up to 2000, then Pollard-Brent
# splitting, with Miller-Rabin primality only where its bases prove it
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


def _perfect_root(n: int) -> int | None:
    """r > 1 with r^k == n for some k >= 2, or None.  Rho needs about
    sqrt(p) steps to split p^k, so prime powers are split here instead.
    n has no prime factor up to _TRIAL_LIMIT > 2^10, hence k < bits / 10."""
    for k in range(2, n.bit_length() // 10 + 1):
        r = 1 << -(-n.bit_length() // k)  # Newton from above to floor(n^(1/k))
        while True:
            nxt = ((k - 1) * r + n // r ** (k - 1)) // k
            if nxt >= r:
                break
            r = nxt
        if r**k == n:
            return r
    return None


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
        g = _perfect_root(m) or _pollard_brent(m)
        stack.append(g)
        stack.append(m // g)
    return out


# ---------------------------------------------------------------------------
# Gaussian integer factorization
# ---------------------------------------------------------------------------


def canonical_associate(z: GaussianRational) -> tuple[GaussianRational, int]:
    """Return (w, t) with w = i^t * z, w in the canonical first-quadrant form
    re > 0, im >= 0.  Inert rational primes keep their natural form (im = 0)."""
    if z.is_zero():
        raise DomainError("zero has no canonical associate")
    w, t = z, 0
    while not (w.re > 0 and w.im >= 0):
        w = w * I_UNIT
        t += 1
        if t > 3:
            raise AssertionError("associate rotation failed to terminate")
    return w, t


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


def _gaussian_int_product(powers) -> tuple[int, int]:
    """prod q^e over (q, e) with Gaussian-integer q, on plain integer pairs
    (square and multiply)."""
    a, b = 1, 0
    for q, e in powers:
        c, d = int(q.re), int(q.im)
        while e:
            if e & 1:
                a, b = a * c - b * d, a * d + b * c
            c, d = c * c - d * d, 2 * c * d
            e >>= 1
    return a, b


@dataclass(frozen=True)
class GaussianFactorization:
    """z = i^unit_exp * prod(prime^exponent) over canonical Gaussian primes."""

    unit_exp: int
    factors: tuple[tuple[GaussianRational, int], ...]

    def value(self) -> GaussianRational:
        num = _gaussian_int_product((q, e) for q, e in self.factors if e > 0)
        den = _gaussian_int_product((q, -e) for q, e in self.factors if e < 0)
        return I_UNIT ** (self.unit_exp % 4) * GaussianRational(*num) / GaussianRational(*den)

    def exponent_of(self, prime: GaussianRational) -> int:
        for q, e in self.factors:
            if q == prime:
                return e
        return 0

    def log_modulus(self) -> "LogModulusVector":
        """ln|z| read off the prime norms, with no further factoring: a
        Gaussian prime above p has norm p, an inert prime p has norm p^2."""
        coords: dict[int, Fraction] = {}
        for prime, e in self.factors:
            if prime.im == 0:
                p, c = int(prime.re), Fraction(e)
            else:
                p, c = int(prime.norm()), Fraction(e, 2)
            coords[p] = coords.get(p, Fraction(0)) + c
        return LogModulusVector.from_dict(coords)


_ONE_PLUS_I = GaussianRational(1, 1)


def _divide_out(g: GaussianRational, prime: GaussianRational, bound: int) -> tuple[GaussianRational, int]:
    # Gaussian integers as integer pairs: g / prime = g * conj(prime) / norm
    a, b = int(g.re), int(g.im)
    c, d = int(prime.re), int(prime.im)
    n = c * c + d * d
    count = 0
    while count < bound:
        x, y = a * c + b * d, b * c - a * d
        if x % n or y % n:
            break
        a, b = x // n, y // n
        count += 1
    return GaussianRational(a, b), count


def _factor_gaussian_integer(g: GaussianRational) -> GaussianFactorization:
    if not g.is_gaussian_integer():
        raise AssertionError("internal: expected a Gaussian integer")
    norm_factors = factor_int(int(g.norm()))
    factors: list[tuple[GaussianRational, int]] = []
    rest = g
    for p in sorted(norm_factors):
        e = norm_factors[p]
        if p == 2:
            rest, count = _divide_out(rest, _ONE_PLUS_I, e)
            if count != e:
                raise AssertionError("ramified prime exponent mismatch")
            factors.append((_ONE_PLUS_I, e))
        elif p % 4 == 3:
            if e % 2:
                raise AssertionError(f"odd exponent of inert prime {p} in a norm")
            prime = GaussianRational(p)
            rest, count = _divide_out(rest, prime, e // 2)
            if count != e // 2:
                raise AssertionError("inert prime exponent mismatch")
            factors.append((prime, e // 2))
        else:
            pi = _split_prime(p)
            pi_bar = canonical_associate(pi.conjugate())[0]
            rest, a = _divide_out(rest, pi, e)
            rest, b = _divide_out(rest, pi_bar, e - a)
            if a + b != e:
                raise AssertionError("split prime exponent mismatch")
            if a:
                factors.append((pi, a))
            if b:
                factors.append((pi_bar, b))
    # the undivided remainder must be a unit i^t
    if rest.norm() != 1:
        raise AssertionError("non-unit remainder after factorization")
    unit = {ONE: 0, I_UNIT: 1, -ONE: 2, -I_UNIT: 3}[rest]
    factors.sort(key=lambda pe: (pe[0].norm(), pe[0].re, pe[0].im))
    return GaussianFactorization(unit, tuple(factors))


def factor_gaussian(z: GaussianRational) -> GaussianFactorization:
    """Exact factorization of a nonzero Gaussian rational over canonical
    Gaussian primes (first quadrant associates; inert primes kept as-is).
    Negative exponents carry the denominator part."""
    if z.is_zero():
        raise DomainError("cannot factor zero")
    den = int(math.lcm(z.re.denominator, z.im.denominator))
    num = GaussianRational(z.re * den, z.im * den)
    fn = _factor_gaussian_integer(num)
    fd = _factor_gaussian_integer(GaussianRational(den))
    merged: dict[GaussianRational, int] = dict(fn.factors)
    for prime, e in fd.factors:
        merged[prime] = merged.get(prime, 0) - e
        if merged[prime] == 0:
            del merged[prime]
    unit = (fn.unit_exp - fd.unit_exp) % 4
    ordered = tuple(sorted(merged.items(), key=lambda pe: (pe[0].norm(), pe[0].re, pe[0].im)))
    result = GaussianFactorization(unit, ordered)
    if result.value() != z:
        raise AssertionError("factorization failed re-multiplication check")
    return result


# ---------------------------------------------------------------------------
# Log-modulus coordinates over the rational-prime basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogModulusVector:
    """ln|z| written as sum(coords[p] * ln p) with exact rational coords.

    coords[p] is half the exponent of p in the norm |z|^2, so entries may be
    half-integers.  Exactness invariant: prod(p^(2*coords[p])) == |z|^2.
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

    def __neg__(self) -> "LogModulusVector":
        return LogModulusVector(tuple((p, -c) for p, c in self.coords))

    def __sub__(self, other: "LogModulusVector") -> "LogModulusVector":
        return self + (-other)

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

    def sign(self, max_bits: int | None = None) -> int:
        """Exact sign of the represented real number sum(c_p ln p).

        An interval enclosure of the sum, along the precision ladder up to
        max_bits, decides it as soon as it excludes zero.  Logarithms of
        distinct primes are linearly independent over Q, so a nonzero
        vector over primes is always decided at some precision.  Only when
        every level straddles zero is the sign decided by comparing the
        exact products prod p^(c_p) on both sides."""
        if not self.coords:
            return 0
        for prec in precision_ladder(max_bits):
            acc = Interval.from_fraction(Fraction(0), prec)
            for p, c in self.coords:
                acc = acc + Interval.log_int(p, prec).scale(c)
            decided = acc.sign()
            if decided:
                return decided
        num = Fraction(1)
        den = Fraction(1)
        common = math.lcm(*(c.denominator for _, c in self.coords))
        for p, c in self.coords:
            e = int(c * common)
            if e > 0:
                num *= Fraction(p) ** e
            else:
                den *= Fraction(p) ** (-e)
        if num > den:
            return 1
        if num < den:
            return -1
        return 0


def log_modulus(z: GaussianRational) -> LogModulusVector:
    """ln|z| as an exact rational vector over {ln p}, read off the
    Gaussian factorization of z."""
    if z.is_zero():
        raise DomainError("log_modulus of zero")
    return factor_gaussian(z).log_modulus()


# ---------------------------------------------------------------------------
# Rigorous interval arithmetic on mpmath mantissas
# ---------------------------------------------------------------------------


class Interval:
    """Closed interval with directed-rounded mpf endpoints."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec: int):
        self.lo = lo
        self.hi = hi
        self.prec = prec

    # construction

    @staticmethod
    def from_fraction(fr: Fraction, prec: int) -> "Interval":
        num, den = from_int(fr.numerator), from_int(fr.denominator)
        return Interval(
            mpf_div(num, den, prec, round_floor),
            mpf_div(num, den, prec, round_ceiling),
            prec,
        )

    @staticmethod
    def pi(prec: int) -> "Interval":
        return Interval(mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling), prec)

    @staticmethod
    def log_int(n: int, prec: int) -> "Interval":
        x = from_int(n)
        return Interval(mpf_log(x, prec, round_floor), mpf_log(x, prec, round_ceiling), prec)

    @staticmethod
    def atan_fraction(t: Fraction, prec: int) -> "Interval":
        # atan is increasing: round the argument outward first
        num, den = from_int(t.numerator), from_int(t.denominator)
        lo_arg = mpf_div(num, den, prec + 8, round_floor)
        hi_arg = mpf_div(num, den, prec + 8, round_ceiling)
        return Interval(
            mpf_atan(lo_arg, prec, round_floor),
            mpf_atan(hi_arg, prec, round_ceiling),
            prec,
        )

    # arithmetic

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(
            mpf_add(self.lo, other.lo, self.prec, round_floor),
            mpf_add(self.hi, other.hi, self.prec, round_ceiling),
            self.prec,
        )

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(
            mpf_sub(self.lo, other.hi, self.prec, round_floor),
            mpf_sub(self.hi, other.lo, self.prec, round_ceiling),
            self.prec,
        )

    def __neg__(self) -> "Interval":
        return Interval(mpf_neg(self.hi), mpf_neg(self.lo), self.prec)

    def __mul__(self, other: "Interval") -> "Interval":
        pairs = [(self.lo, other.lo), (self.lo, other.hi), (self.hi, other.lo), (self.hi, other.hi)]
        los = [mpf_mul(a, b, self.prec, round_floor) for a, b in pairs]
        his = [mpf_mul(a, b, self.prec, round_ceiling) for a, b in pairs]
        return Interval(min(los, key=_mpf_key), max(his, key=_mpf_key), self.prec)

    def scale(self, fr: Fraction) -> "Interval":
        return self * Interval.from_fraction(fr, self.prec)

    # queries (exact: endpoints convert to Fractions losslessly)

    def lo_fraction(self) -> Fraction:
        return _mpf_to_fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        return _mpf_to_fraction(self.hi)

    def contains_zero(self) -> bool:
        return self.lo_fraction() <= 0 <= self.hi_fraction()

    def sign(self) -> int:
        """+1/-1 when certified away from zero, 0 when undecided."""
        if self.lo_fraction() > 0:
            return 1
        if self.hi_fraction() < 0:
            return -1
        return 0


def _mpf_key(x) -> Fraction:
    return _mpf_to_fraction(x)


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise AssertionError("non-finite mpf endpoint")
    value = Fraction(int(man)) * (Fraction(2) ** exp)
    return -value if sign else value


# ---------------------------------------------------------------------------
# Certified rounding of angle combinations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TurnSum:
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


def _turns_interval(ts: TurnSum, prec: int) -> Interval:
    acc = Interval.from_fraction(ts.rational, prec)
    if ts.atan_terms:
        two_pi = Interval.pi(prec).scale(Fraction(2))
        inv = Interval(
            mpf_div(from_int(1), two_pi.hi, prec, round_floor),
            mpf_div(from_int(1), two_pi.lo, prec, round_ceiling),
            prec,
        )
        for c, t in ts.atan_terms:
            acc = acc + (Interval.atan_fraction(t, prec) * inv).scale(c)
    return acc


def certified_round_to_integer(ts: TurnSum, max_bits: int | None = None) -> int:
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
    quarter = Fraction(1, 4)
    for prec in precision_ladder(max_bits):
        box = _turns_interval(ts, prec)
        lo, hi = box.lo_fraction(), box.hi_fraction()
        mid = (lo + hi) / 2
        k = int(mid) if mid.denominator == 1 else round(mid)
        if lo > k - quarter and hi < k + quarter:
            return k
    raise IndeterminateError("certified rounding exhausted its precision budget")
