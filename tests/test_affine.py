import pytest

from covnum.affine import GF, AffineSpace, affine_group, agl_cover
from covnum.cover import sigma_exact
from covnum.errors import BudgetExceeded, OutOfRange
from covnum.registry import sigma_formula
from covnum.subgroups import prime_power


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustively(q):
    f = GF(q)
    xs = range(q)
    for a in xs:
        assert f.add(a, 0) == a and f.mul(a, 1) == a
        assert any(f.add(a, b) == 0 for b in xs)
        for b in xs:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in xs:
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    # every nonzero element invertible
    for a in range(1, q):
        assert any(f.mul(a, b) == 1 for b in range(1, q))


def test_primitive_element_generates():
    for q in (4, 8, 9):
        f = GF(q)
        a = f.primitive_element()
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = f.mul(x, a)
            seen.add(x)
        assert len(seen) == q - 1


def test_not_a_prime_power():
    for q in (6, 1, 12, 100):
        with pytest.raises(OutOfRange):
            GF(q)
        with pytest.raises(OutOfRange, match=f"^{q} is not a prime power$"):
            prime_power(q)


def test_prime_power():
    for p in (2, 3, 5, 7, 11, 13, 101):
        for d in range(1, 6):
            assert prime_power(p ** d) == (p, d)


@pytest.mark.parametrize("n,q,order", [
    (1, 3, 6), (1, 4, 12), (1, 5, 20), (1, 7, 42), (1, 8, 56), (1, 9, 72),
    (2, 2, 24), (2, 3, 432), (3, 2, 1344),
])
def test_affine_group_orders(n, q, order):
    group, space = affine_group(n, q)
    assert group.order == order
    assert group.degree == q ** n


def test_affine_group_budget():
    with pytest.raises(BudgetExceeded):
        affine_group(3, 3, max_order=10**4)


def test_affine_space_lines():
    space = AffineSpace(3, 2)
    assert len(space.lines()) == 7
    space = AffineSpace(1, 5)
    assert len(space.lines()) == 1


@pytest.mark.parametrize("n,q,c1,c2", [
    (1, 4, 4, 1), (1, 5, 5, 1), (1, 7, 7, 1), (3, 2, 8, 7),
])
def test_agl_cover_structure(n, q, c1, c2):
    cover = agl_cover(n, q)
    assert len(cover.point_stabilizers) == c1
    assert len(cover.direction_subgroups) == c2
    assert cover.total == (q ** (n + 1) - 1) // (q - 1)


def test_agl_cover_matches_formula():
    for n, q in [(1, 4), (1, 5), (1, 7), (1, 8), (3, 2)]:
        assert agl_cover(n, q).total == sigma_formula("agl", n, q)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_sigma_agl1_closes_at_q_plus_one(q):
    group, _ = affine_group(1, q)
    result = sigma_exact(group)
    assert result.optimal and result.upper == q + 1
