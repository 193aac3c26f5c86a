"""Exact arithmetic for the quadratic irrationals used by the embedding bounds.

All threshold comparisons in the embedder reduce to questions of the form
``integer vs a + b*sqrt(c)`` or ``integer vs q + sqrt(a + b*sqrt(c))`` with
rational a, b, q and nonnegative integer c. Deciding these with floats would
misclassify tight boundary cases, so everything here is done with Fractions.
Each ``Surd`` is kept in one normal form, so equality compares fields; an
ordering and the nested-radical comparison isolate the radical and square
it, tracking signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

RationalLike = int | Fraction


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True, eq=False)
class Surd:
    """Exact value ``a + b*sqrt(c)`` with a, b rational and c a nonnegative int.

    Use :meth:`Surd.of` to construct. Its normal form has c square-free and
    at least 2, or b = c = 0 for a rational value, so equal values have
    equal fields: ``==`` compares them and never raises. Ordering two values
    over different radicands raises ``ValueError``.
    """

    a: Fraction
    b: Fraction
    c: int

    @staticmethod
    def of(a: RationalLike, b: RationalLike = 0, c: int = 0) -> "Surd":
        a = _as_fraction(a)
        b = _as_fraction(b)
        c = int(c)
        if c < 0:
            raise ValueError("radicand must be nonnegative")
        p = 2
        while p * p <= c:  # move each square factor p*p of c out into b
            while c % (p * p) == 0:
                c //= p * p
                b *= p
            p += 1
        if b == 0 or c <= 1:
            return Surd(a + b * c, Fraction(0), 0)
        return Surd(a, b, c)

    def sign(self) -> int:
        sa, sb = _sign(self.a), _sign(self.b)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: the larger of a^2 and b^2 * c wins
        return sa * _sign(self.a * self.a - self.b * self.b * self.c)

    def _diff(self, other: "Surd | RationalLike") -> "Surd":
        if isinstance(other, Surd):
            if self.c != other.c and self.c != 0 and other.c != 0:
                raise ValueError("cannot compare surds over different radicands")
            c = self.c or other.c
            return Surd.of(self.a - other.a, self.b - other.b, c)
        return Surd.of(self.a - _as_fraction(other), self.b, self.c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Surd.of(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self) -> int:
        # a rational value equals its int or Fraction, so it hashes as one
        return hash(self.a if not self.c else (self.a, self.b, self.c))

    def __lt__(self, other: "Surd | RationalLike") -> bool:
        return self._diff(other).sign() < 0

    def __le__(self, other: "Surd | RationalLike") -> bool:
        return self._diff(other).sign() <= 0

    def __gt__(self, other: "Surd | RationalLike") -> bool:
        return self._diff(other).sign() > 0

    def __ge__(self, other: "Surd | RationalLike") -> bool:
        return self._diff(other).sign() >= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.c)


@dataclass(frozen=True)
class RootBound:
    """Exact value ``q + sqrt(radicand)`` where the radicand is a nonnegative Surd.

    Compared with rationals by the exact three-way :meth:`cmp`, which is all
    the bound formulas need: they are only ever compared to candidate
    integers s.
    """

    q: Fraction
    radicand: Surd

    def __post_init__(self) -> None:
        if self.radicand.sign() < 0:
            raise ValueError("radicand must be nonnegative")

    def cmp(self, t: RationalLike) -> int:
        """Sign of (self - t): -1 if self < t, 0 if equal, 1 if self > t."""
        d = _as_fraction(t) - self.q  # compare sqrt(X) against d
        if d < 0:
            return 1
        return self.radicand._diff(d * d).sign()

    def __float__(self) -> float:
        return float(self.q) + math.sqrt(float(self.radicand))

    def min_integer_above(self) -> int:
        """Smallest integer strictly greater than this value."""
        s = math.floor(float(self)) - 2
        while self.cmp(s) >= 0:
            s += 1
        return s
