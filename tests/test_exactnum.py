import math
from fractions import Fraction

import pytest

from stardecomp.exactnum import RootBound, Surd


def test_perfect_square_folds_into_rational():
    s = Surd.of(1, 2, 9)
    assert s.b == 0
    assert s == 7


def test_rational_values_hash_as_their_int_or_fraction():
    # equal objects must hash equal, so a rational Surd stands in for its value
    assert hash(Surd.of(3)) == hash(3)
    assert hash(Surd.of(1, 2, 9)) == hash(7)
    assert hash(Surd.of(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({Surd.of(3), 3}) == 1
    assert len({Surd.of(Fraction(1, 2)), Fraction(1, 2), Surd.of(1, 2, 2)}) == 2
    assert hash(Surd.of(1, 2, 2)) == hash(Surd.of(1, 2, 2))


def test_sign_tracking_opposite_signs():
    assert Surd.of(3, -2, 2).sign() == 1  # 3 > 2*sqrt(2)
    assert Surd.of(-3, 2, 2).sign() == -1
    assert Surd.of(2, -1, 4).sign() == 0  # 2 - sqrt(4)
    assert Surd.of(-5, 2, 2).sign() == -1
    assert Surd.of(5, -2, 2).sign() == 1  # 25 > 8


def test_comparisons_against_integers():
    cap = Surd.of(48, -16, 2)  # (6 - 2*sqrt(2)) * 8
    assert cap > 25
    assert cap < 26
    assert not (cap > 26)
    assert float(cap) == pytest.approx(25.372, abs=1e-3)


def test_comparisons_between_surds_same_radicand():
    a = Surd.of(1, 1, 2)
    b = Surd.of(2, Fraction(1, 2), 2)
    assert a < b
    assert b > a
    assert Surd.of(0, 2, 2) == Surd.of(0, 2, 2)


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        Surd.of(0, 1, 2) < Surd.of(0, 1, 3)


def test_square_factors_move_out_of_the_radicand():
    # sqrt(8) is 2*sqrt(2): one normal form, so equal values share fields
    s = Surd.of(0, 1, 8)
    assert (s.a, s.b, s.c) == (0, 2, 2)
    assert s == Surd.of(0, 2, 2)
    assert hash(s) == hash(Surd.of(0, 2, 2))
    assert Surd.of(1, 1, 8) < Surd.of(1, Fraction(5, 2), 2)  # same radicand once normal
    assert Surd.of(Fraction(1, 3), 3, 72) == Surd.of(Fraction(1, 3), 18, 2)


def test_equality_across_radicands_is_false():
    assert not (Surd.of(0, 1, 2) == Surd.of(0, 1, 3))
    assert Surd.of(0, 1, 2) != Surd.of(0, 1, 3)
    assert Surd.of(0, 1, 2) != 0
    assert Surd.of(0, 1, 2) != Fraction(1, 2)


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        Surd.of(0, 1, -1)


def test_root_bound_exact_threshold():
    # value = sqrt(2): integers 1 and 2 must land on opposite sides
    v = RootBound(Fraction(0), Surd.of(2))
    assert v.cmp(1) > 0
    assert v.cmp(2) < 0
    assert v.min_integer_above() == 2


def test_root_bound_exact_tie():
    # q + sqrt(X) with X = 0 hits an integer exactly
    v = RootBound(Fraction(3), Surd.of(0))
    assert v.cmp(3) == 0
    assert not (v.cmp(3) > 0)
    assert not (v.cmp(3) < 0)
    assert v.min_integer_above() == 4


def test_root_bound_nested_radical():
    # sqrt(10006.25 - 200*sqrt(6)) - 96.5 is just above 1
    v = RootBound(
        Fraction(-193, 2), Surd.of(Fraction(40025, 4), -200, 6)
    )
    assert v.cmp(1) > 0
    assert v.cmp(2) < 0
    assert float(v) == pytest.approx(
        -96.5 + math.sqrt(10006.25 - 200 * math.sqrt(6)), abs=1e-9
    )


def test_root_bound_rejects_negative_radicand():
    with pytest.raises(ValueError):
        RootBound(Fraction(0), Surd.of(-1, 0, 0))
