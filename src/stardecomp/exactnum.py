"""Exact arithmetic for the quadratic irrationals used by the embedding bounds.

All threshold comparisons in the embedder reduce to questions of the form
``integer vs a + b*sqrt(c)`` or ``integer vs q + sqrt(a + b*sqrt(c))`` with
rational a, b, q and nonnegative integer c. Deciding these with floats would
misclassify tight boundary cases, so everything here is done with Fractions.
No radicand is ever factored, so a value of any size costs a few big-int
operations: equality compares the rational part and the signed square of
the radical part, an ordering and the nested-radical comparison isolate
the radical and square it, tracking signs, and ``floor`` and ``to_fixed``
bisect on those exact comparisons.
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


def _floor(cmp, guess: int) -> int:
    """The largest integer t with ``cmp(t) >= 0``, where ``cmp(t)`` is the
    sign of (value - t): steps away from ``guess`` by doubling until the
    answer is bracketed, then bisects. Exact whatever the guess; a guess
    off by e costs about 2*log2(e) comparisons."""
    step = 1
    if cmp(guess) >= 0:
        lo = guess
        while cmp(lo + step) >= 0:
            lo += step
            step *= 2
        hi = lo + step
    else:
        hi = guess
        while cmp(hi - step) < 0:
            hi -= step
            step *= 2
        lo = hi - step
    while hi - lo > 1:  # cmp(lo) >= 0 > cmp(hi)
        mid = (lo + hi) // 2
        if cmp(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True, eq=False)
class Surd:
    """Exact value ``a + b*sqrt(c)`` with a, b rational and c a nonnegative int.

    Use :meth:`Surd.of` to construct. It folds a perfect-square radicand
    into a, so a value is rational iff c = 0, and otherwise c is no square
    and b is not 0. The radicand is not factored: sqrt(8) keeps c = 8. Equal
    values have equal keys (a, b*|b|*c), since b*sqrt(c) is named by its
    signed square, so ``==`` and ``hash`` read the key and never raise.
    Ordering two values raises ``ValueError`` unless their radicands are
    equal, one is 0, or their product is a square, which puts both radical
    parts over one radicand.
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
        root = math.isqrt(c)
        if b == 0 or root * root == c:
            return Surd(a + b * root, Fraction(0), 0)
        return Surd(a, b, c)

    def _key(self) -> tuple[Fraction, Fraction]:
        return self.a, self.b * abs(self.b) * self.c

    def sign(self) -> int:
        sa, sb = _sign(self.a), _sign(self.b)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: the larger of a^2 and b^2 * c wins
        return sa * _sign(self.a * self.a - self.b * self.b * self.c)

    def _diff(self, other: "Surd | RationalLike") -> "Surd":
        if not isinstance(other, Surd):
            return Surd.of(self.a - _as_fraction(other), self.b, self.c)
        b = other.b
        if self.c and other.c and self.c != other.c:
            # sqrt(c2) = (m / c1) * sqrt(c1) when c1 * c2 = m^2
            m = math.isqrt(self.c * other.c)
            if m * m != self.c * other.c:
                raise ValueError("cannot compare surds over unrelated radicands")
            b *= Fraction(m, self.c)
        return Surd.of(self.a - other.a, self.b - b, self.c or other.c)

    def cmp(self, t: "Surd | RationalLike") -> int:
        """Sign of (self - t): -1 if self < t, 0 if equal, 1 if self > t."""
        return self._diff(t).sign()

    def _estimate(self, scale: int) -> int:
        """An integer within 2 of self * scale, from integer square roots."""
        square = self.b * abs(self.b) * self.c * scale * scale
        return math.floor(self.a * scale) + _sign(square) * math.isqrt(math.floor(abs(square)))

    def floor(self, scale: int = 1) -> int:
        """floor(self * scale), exactly, for an int scale >= 1."""
        return _floor(lambda t: self.cmp(Fraction(t, scale)), self._estimate(scale))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Surd.of(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        # a rational value equals its int or Fraction, so it hashes as one
        return hash(self.a if not self.c else self._key())

    def __lt__(self, other: "Surd | RationalLike") -> bool:
        return self.cmp(other) < 0

    def __le__(self, other: "Surd | RationalLike") -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other: "Surd | RationalLike") -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other: "Surd | RationalLike") -> bool:
        return self.cmp(other) >= 0


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

    def floor(self, scale: int = 1) -> int:
        """floor(self * scale), exactly, for an int scale >= 1."""
        root = math.isqrt(max(0, self.radicand._estimate(scale * scale)))
        guess = math.floor(self.q * scale) + root
        return _floor(lambda t: self.cmp(Fraction(t, scale)), guess)

    def min_integer_above(self) -> int:
        """Smallest integer strictly greater than this value."""
        return self.floor() + 1


def to_fixed(value: "RationalLike | Surd | RootBound") -> str:
    """``value`` to six decimals, as ``f"{value:.6f}"`` prints a float but
    exactly and at any size: rounded to nearest, a tie to the even last
    digit."""
    if not isinstance(value, (Surd, RootBound)):
        value = Surd.of(value)
    scale = 10**6
    twice = value.floor(2 * scale)
    units, half = divmod(twice, 2)
    # half: value * scale is at least units + 1/2, and a tie rounds to even
    if half and (units % 2 or value.cmp(Fraction(twice, 2 * scale)) > 0):
        units += 1
    whole, frac = divmod(abs(units), scale)
    return f"{'-' if units < 0 else ''}{whole}.{frac:06d}"
