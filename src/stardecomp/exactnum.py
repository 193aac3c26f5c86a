"""Exact arithmetic for the quadratic irrationals used by the embedding bounds.

All threshold comparisons in the embedder reduce to questions of the form
``integer vs a + b*sqrt(c)`` or ``integer vs q + sqrt(a + b*sqrt(c))`` with
rational a, b, q and nonnegative integer c. Deciding these with floats would
misclassify tight boundary cases, so everything here is done with Fractions,
isolating the radical and squaring while tracking signs.
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


@dataclass(frozen=True, eq=False)
class Surd:
    """Exact value ``a + b*sqrt(c)`` with a, b rational and c a nonnegative int.

    Use :meth:`Surd.of` to construct; it folds perfect-square radicands into
    the rational part so equality of values matches equality of fields.
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
        if b == 0 or c == 0:
            return Surd(a, Fraction(0), 0)
        r = math.isqrt(c)
        if r * r == c:
            return Surd(a + b * r, Fraction(0), 0)
        return Surd(a, b, c)

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 * c
        t = self.a * self.a - self.b * self.b * self.c
        if t == 0:
            return 0
        if self.a > 0:
            return 1 if t > 0 else -1
        return -1 if t > 0 else 1

    def _diff(self, other: "Surd | RationalLike") -> "Surd":
        if isinstance(other, Surd):
            if self.c != other.c and self.c != 0 and other.c != 0:
                raise ValueError("cannot compare surds over different radicands")
            c = self.c or other.c
            return Surd.of(self.a - other.a, self.b - other.b, c)
        return Surd.of(self.a - _as_fraction(other), self.b, self.c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Surd, int, Fraction)):
            return NotImplemented
        return self._diff(other).sign() == 0

    def __hash__(self) -> int:
        # a rational value equals its int or Fraction, so it hashes as one
        return hash(self.a if not (self.b and self.c) else (self.a, self.b, self.c))

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

    Supports exact three-way comparison against rationals, which is all the
    bound formulas need: they are only ever compared to candidate integers s.
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

    def __lt__(self, t: RationalLike) -> bool:
        return self.cmp(t) < 0

    def __le__(self, t: RationalLike) -> bool:
        return self.cmp(t) <= 0

    def __gt__(self, t: RationalLike) -> bool:
        return self.cmp(t) > 0

    def __ge__(self, t: RationalLike) -> bool:
        return self.cmp(t) >= 0

    def __float__(self) -> float:
        return float(self.q) + math.sqrt(float(self.radicand))

    def min_integer_above(self) -> int:
        """Smallest integer strictly greater than this value."""
        s = math.floor(float(self)) - 2
        while self.cmp(s) >= 0:
            s += 1
        return s
