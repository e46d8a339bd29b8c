"""Ranking axioms and leader machinery."""

import random

import pytest

from diffalg import Ranking, RingContext, compare_vars, leader_initial_separant, parse_poly
from diffalg.ranking import ELIMINATION
from diffalg.ring import DerivVar, xvar
from diffalg.sparse import emul

from conftest import rand_var

R = RingContext(m=2, n=3)


def P(s):
    return parse_poly(s, R)


def test_orderly_examples():
    r = Ranking()
    d1x1 = DerivVar("x", 1, (1, 0))
    d2x1 = DerivVar("x", 1, (0, 1))
    assert compare_vars(d2x1, d1x1, r) == -1
    assert compare_vars(DerivVar("x", 2, (0, 0)), d1x1, r) == -1
    assert compare_vars(DerivVar("x", 1, (0, 0)), DerivVar("x", 2, (0, 0)), r) == -1


def test_parse_spec():
    assert Ranking.parse("orderly", 3) == Ranking()
    assert Ranking.parse("elimination:2,1,3", 3) == Ranking(ELIMINATION, (2, 1, 3))
    for bad in ("lex", "elimination", "elimination:1,1", "elimination:a", "eliminationX:1"):
        with pytest.raises(ValueError):
            Ranking.parse(bad, 2)
    with pytest.raises(ValueError, match="needs comma-separated indices, got '2,b'"):
        Ranking.parse("elimination:2,b", 2)
    with pytest.raises(ValueError, match=r"^elimination ranking must permute 1\.\.3$"):
        Ranking.parse("elimination:2,1", 3)


def test_elimination_permutation_required():
    with pytest.raises(ValueError):
        Ranking(ELIMINATION)
    with pytest.raises(ValueError):
        Ranking(ELIMINATION, (1, 1, 2))


@pytest.mark.parametrize(
    "ranking",
    [Ranking(), Ranking(ELIMINATION, (2, 3, 1)), Ranking(ELIMINATION, (3, 1, 2))],
    ids=["orderly", "elim-231", "elim-312"],
)
def test_ranking_axioms_on_random_pairs(ranking):
    rng = random.Random(99)
    for _ in range(10_000):
        u = rand_var(rng, R, ("x",), max_order=3)
        v = rand_var(rng, R, ("x",), max_order=3)
        theta = tuple(rng.randint(0, 2) for _ in range(R.m))
        if any(theta):
            tu = DerivVar(u.family, u.index, emul(u.theta, theta))
            assert compare_vars(tu, u, ranking) == 1
            tv = DerivVar(v.family, v.index, emul(v.theta, theta))
            c, tc = compare_vars(u, v, ranking), compare_vars(tu, tv, ranking)
            assert c == tc
        # strict total order
        assert compare_vars(u, v, ranking) == -compare_vars(v, u, ranking)
        assert (compare_vars(u, v, ranking) == 0) == (u == v)


def test_leader_initial_separant_examples():
    r = Ranking()
    u, ini, sep = leader_initial_separant(P("x1*d1x1^2 + d2x1"), r)
    assert u == DerivVar("x", 1, (1, 0))
    assert ini == P("x1")
    assert sep == P("2*x1*d1x1")

    u, ini, sep = leader_initial_separant(P("d1d2x1 + x1^3"), r)
    assert u == DerivVar("x", 1, (1, 1))
    assert ini == P("1") and sep == P("1")

    u, ini, sep = leader_initial_separant(P("x1*x2"), r)
    assert u == DerivVar("x", 2, (0, 0))
    assert ini == P("x1") and sep == P("x1")


def test_leader_of_constant_rejected():
    with pytest.raises(ValueError):
        leader_initial_separant(P("5"), Ranking())


def test_equal_variables_hash_equal_however_built():
    d1x1 = DerivVar("x", 1, (1, 0))
    ways = [
        DerivVar("x", 1, [1, 0]),
        xvar(R, 1).derived(1),
        DerivVar("y", 1, (1, 0)).shadow("x"),
        xvar(R, 1, [1, 0]),
    ]
    for v in ways:
        assert type(v.theta) is tuple
        assert v == d1x1 and hash(v) == hash(d1x1)
        assert repr(v) == "DerivVar(family='x', index=1, theta=(1, 0))"
        assert v.sort_key == ("x", 1, (1, 0))
        assert compare_vars(v, d1x1, Ranking()) == 0
    assert len(set(ways)) == 1
    assert DerivVar("x", 1, [0, 1]) != d1x1
    assert compare_vars(DerivVar("x", 1, [0, 1]), d1x1, Ranking()) == -1
    with pytest.raises(ValueError):
        DerivVar("x", 1, [-1, 0])
