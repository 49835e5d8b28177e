import random
from array import array

import pytest
from hypothesis import given, strategies as st

from covnum.errors import DegreeMismatch, ParseError
from covnum.perms import Permutation, format_cycles, parse_permutation, take


def P(text, degree):
    return parse_permutation(text, degree)


def test_identity_is_neutral():
    a = P("(1,2,3)", 5)
    e = Permutation.identity(5)
    assert a * e == a
    assert e * a == a


def test_involution_squares_to_identity():
    t = P("(1,2)", 4)
    assert t * t == Permutation.identity(4)


def test_compose_matches_pointwise_evaluation():
    # oracle: apply both maps point by point, first a then b
    a = P("(1,2,3)", 3)
    b = P("(1,2)", 3)
    expected = Permutation(tuple(b(a(x)) for x in range(3)))
    assert a * b == expected
    assert expected == P("(2,3)", 3)


def test_compose_convention_left_to_right():
    a = P("(1,2)", 4)
    b = P("(2,3)", 4)
    assert (a * b)(0) == b(a(0)) == 2


@given(st.permutations(list(range(6))), st.permutations(list(range(6))),
       st.permutations(list(range(6))))
def test_compose_associative(pa, pb, pc):
    a, b, c = Permutation(pa), Permutation(pb), Permutation(pc)
    assert (a * b) * c == a * (b * c)


def test_construction_rejects_non_permutations():
    for bad in [(0, 0, 1), (1, 2), (0, 1, 3), (-1, 0)]:
        with pytest.raises(ValueError):
            Permutation(bad)


@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.permutations(list(range(n))), st.permutations(list(range(n))))))
def test_products_and_inverses_equal_validated_construction(pair):
    """Products and inverses skip the check in Permutation(...); they must
    equal the validated permutation built from their images."""
    a, b = Permutation(pair[0]), Permutation(pair[1])
    for p in (a * b, b * a, a.inverse(), a.conjugated_by(b)):
        assert p == Permutation(list(p.images))
        assert p.images == tuple(Permutation(list(p.images)).images)
    assert (a * b).images == tuple(pair[1][x] for x in pair[0])


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        P("(1,2)", 2) * P("(1,2,3)", 3)


def test_order_examples():
    assert Permutation.identity(4).order == 1
    assert P("(1,2,3,4,5)", 5).order == 5
    assert P("(1,2)(3,4,5)", 5).order == 6


@given(st.permutations(list(range(7))))
def test_order_is_least_power_reaching_identity(images):
    p = Permutation(images)
    k = p.order
    power = p
    for _ in range(1, k):
        assert power != Permutation.identity(7)
        power = power * p
    assert power == Permutation.identity(7)


@given(st.permutations(list(range(8))))
def test_format_parse_round_trip(images):
    p = Permutation(images)
    assert parse_permutation(format_cycles(p), 8) == p


def test_parse_identity_and_whitespace():
    assert parse_permutation("()", 5) == Permutation.identity(5)
    assert parse_permutation(" (1, 2) ( 4 ,5) ", 5) == P("(1,2)(4,5)", 5)


def test_parse_rejects_garbage():
    for bad in ["", "(1,2", "(1,2)x", "(0,1)", "(1,9)", "(1,1,2)", "(1,2)(2,3)"]:
        with pytest.raises(ParseError):
            parse_permutation(bad, 5)


def test_inverse_and_conjugation():
    a = P("(1,2,3)", 5)
    g = P("(1,4)(2,5)", 5)
    assert a * a.inverse() == Permutation.identity(5)
    assert a.conjugated_by(g) == g.inverse() * a * g
    assert a.conjugated_by(g).degree == a.degree
    assert sorted(map(len, a.conjugated_by(g).cycles())) == sorted(map(len, a.cycles()))


def test_from_cycles_validates():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 5)])
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


TAKE_SOURCES = {  # 60 entries each
    "list": [7 * x + 3 for x in range(60)],
    "tuple": tuple(range(60, 0, -1)),
    "array": array("H", (x * x for x in range(60))),
    "str": "".join(chr(ord("a") + x % 26) for x in range(60)),
}


@pytest.mark.parametrize("length", [0, 1, 2, 50])
@pytest.mark.parametrize("kind", sorted(TAKE_SOURCES))
def test_take_returns_the_tuple_of_entries(kind, length):
    """take(idx)(seq) is tuple(seq[i] for i in idx) for every length of idx,
    the lengths 0 and 1 included, where operator.itemgetter would fail or
    return a bare item."""
    seq = TAKE_SOURCES[kind]
    rng = random.Random(length)
    for idx in ([rng.randrange(60) for _ in range(length)],
                tuple(range(length)), array("H", range(59, 59 - length, -1))):
        got = take(idx)(seq)
        assert type(got) is tuple
        assert got == tuple(seq[i] for i in idx)
    assert take(frozenset({5}))(seq) == (seq[5],)
    assert take({4: None, 9: None})(seq) == (seq[4], seq[9])


def test_degree_one_and_two_products():
    e = Permutation.identity(1)
    assert (e * e).images == (0,)
    assert e.conjugated_by(e) == e
    t = Permutation((1, 0))
    assert (t * t).images == (0, 1)
    assert t.conjugated_by(t) == t
