import math
from fractions import Fraction

import pytest

from stardecomp.embedding import bound_report, general_cap, n_threshold
from stardecomp.exactnum import RootBound, Surd, to_fixed


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
    assert to_fixed(cap) == "25.372583"


def test_comparisons_between_surds_same_radicand():
    a = Surd.of(1, 1, 2)
    b = Surd.of(2, Fraction(1, 2), 2)
    assert a < b
    assert b > a
    assert Surd.of(0, 2, 2) == Surd.of(0, 2, 2)


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        Surd.of(0, 1, 2) < Surd.of(0, 1, 3)


def test_square_factors_stay_in_the_radicand_and_compare_equal():
    # sqrt(8) is 2*sqrt(2): the radicand is never factored, yet equal values
    # compare and hash equal, and radicands whose product is a square order
    s = Surd.of(0, 1, 8)
    assert (s.a, s.b, s.c) == (0, 1, 8)
    assert s == Surd.of(0, 2, 2)
    assert hash(s) == hash(Surd.of(0, 2, 2))
    assert s != Surd.of(0, -2, 2)
    assert Surd.of(1, 1, 8) < Surd.of(1, Fraction(5, 2), 2)
    assert Surd.of(Fraction(1, 3), 3, 72) == Surd.of(Fraction(1, 3), 18, 2)
    assert Surd.of(Fraction(1, 3), 3, 72) >= Surd.of(Fraction(1, 3), 18, 2)


def test_a_radicand_with_a_large_square_free_part_needs_no_factoring():
    # 8k for k = 10^17 + 1 has a square-free part near 10^17, which trial
    # division up to its square root never finished
    k = 10**17 + 1
    s = Surd.of(0, 1, 8 * k)
    assert s == Surd.of(0, 2, 2 * k)
    assert s.floor() == math.isqrt(8 * k)
    assert Surd.of(1, 2, 4 * k * k) == 1 + 4 * k


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
    near = Fraction(-96.5 + math.sqrt(10006.25 - 200 * math.sqrt(6)))
    assert v.cmp(near - Fraction(1, 10**9)) > 0
    assert v.cmp(near + Fraction(1, 10**9)) < 0


def test_root_bound_rejects_negative_radicand():
    with pytest.raises(ValueError):
        RootBound(Fraction(0), Surd.of(-1, 0, 0))


@pytest.mark.parametrize(
    "k, n, expected",
    [
        # a float start overshot both: it answered 2k - 2 and 2k - 2
        (10**20, 5, 2 * 10**20 - 5),
        (10**22, 7, 2 * 10**22 - 7),
        (8, 8, 9),
    ],
)
def test_min_integer_above_is_exact_at_any_size(k, n, expected):
    bound = bound_report(n, k).s_lower_general
    assert bound.min_integer_above() == expected
    assert bound.cmp(expected) < 0 <= bound.cmp(expected - 1)


def test_floor_brackets_from_any_side():
    for value in (Fraction(-7, 2), Fraction(0), Fraction(5), Fraction(10**30, 3)):
        assert Surd.of(value).floor() == math.floor(value)
    assert Surd.of(0, -1, 2).floor() == -2
    assert Surd.of(0, 1, 2).floor(10**6) == 1414213
    assert RootBound(Fraction(-10**40), Surd.of(10**80 + 1)).floor() == 0


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(27, 4), "6.750000"),
        (Surd.of(48, -16, 2), "25.372583"),
        (Fraction(1, 128), "0.007812"),  # a tie goes to the even digit
        (Fraction(3, 128), "0.023438"),
        (Fraction(-1, 3), "-0.333333"),
        (Surd.of(0, -1, 2), "-1.414214"),
        (RootBound(Fraction(0), Surd.of(2)), "1.414214"),
    ],
)
def test_to_fixed_prints_six_decimals(value, text):
    assert to_fixed(value) == text


def test_to_fixed_is_exact_where_floats_are_not():
    # the float of k - n + 1/2 + sqrt(...) cancels its leading digits away
    assert to_fixed(bound_report(10**12, 5).s_lower_general) == "2.337722"
    assert to_fixed(n_threshold(10**12)) == "353553515592964402.874278"
    huge = 10**320  # past the largest float
    assert to_fixed(general_cap(huge)).startswith("31715728752538099023966225515806038")
    assert to_fixed(general_cap(huge + 1)) == f"{(9 * huge + 9) // 4}.250000"
