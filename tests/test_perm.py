import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfgalois import perm
from hopfgalois.errors import DegreeMismatchError

from conftest import generator_compose


def test_compose_identity():
    p = (1, 2, 0)
    assert perm.compose(perm.identity(3), p) == p
    assert perm.compose(p, perm.identity(3)) == p


def test_compose_inverse_is_identity():
    p = (1, 2, 0)
    assert perm.compose(p, perm.inverse(p)) == perm.identity(3)
    assert perm.compose(perm.inverse(p), p) == perm.identity(3)


def test_compose_pointwise():
    # p swaps 0,1; q swaps 1,2; p(q(x)) sends 0->1, 1->2, 2->0
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert perm.compose(p, q) == (1, 2, 0)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        perm.compose((1, 0), (0, 1, 2))


@st.composite
def _perm_pair(draw):
    degree = draw(st.integers(0, 40))
    return tuple(draw(st.permutations(range(degree)))), tuple(draw(st.permutations(range(degree))))


@settings(deadline=None, derandomize=True)
@given(_perm_pair())
@example(((), ()))
@example(((0,), (0,)))
def test_compose_matches_generator_expression(pair):
    # one itemgetter call, a tuple at every degree, degrees 0 and 1 included
    p, q = pair
    assert perm.compose(p, q) == generator_compose(p, q)
    assert type(perm.compose(p, q)) is tuple


@settings(deadline=None, derandomize=True)
@given(st.integers(0, 40), st.integers(0, 40))
def test_compose_refuses_mixed_degrees(d1, d2):
    p, q = perm.identity(d1), perm.identity(d2)
    if d1 == d2:
        assert perm.compose(p, q) == generator_compose(p, q)
    else:
        for f in (perm.compose, generator_compose):
            with pytest.raises(DegreeMismatchError):
                f(p, q)


def test_sign():
    assert perm.sign((0, 1, 2)) == 1
    assert perm.sign((1, 0, 2)) == -1
    assert perm.sign((1, 2, 0)) == 1
    assert perm.sign((1, 0, 3, 2)) == 1


def test_cycles():
    assert perm.cycles((1, 2, 0, 3)) == [(0, 1, 2), (3,)]


def test_semiregular_order():
    assert perm.semiregular_order((0, 1, 2)) == 1  # identity: all cycles length 1
    assert perm.semiregular_order((1, 0, 3, 2)) == 2
    assert perm.semiregular_order((1, 2, 3, 0)) == 4
    assert perm.semiregular_order((1, 0, 2, 3)) == 0  # cycle lengths 2, 1, 1


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_semiregular_order_against_powers(degree):
    # semiregular: no power below the order fixes a point
    ident = perm.identity(degree)
    for p in itertools.permutations(range(degree)):
        powers = [ident, p]
        while powers[-1] != ident:
            powers.append(perm.compose(powers[-1], p))
        order = len(powers) - 1
        free = all(q[x] != x for q in powers[1:order] for x in range(degree))
        assert perm.semiregular_order(p) == (order if free else 0), p


def test_is_perm():
    assert perm.is_perm((2, 0, 1))
    assert not perm.is_perm((0, 0, 1))
