"""Shared rings, parsing shortcuts and seeded random generators."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from diffalg import (
    DiffPoly,
    ModelPoint,
    Ranking,
    RingContext,
    Scalar,
    TPoly,
    autoreduced_check,
    parse_poly,
)
from diffalg.ring import CONSTANTS, RATIONAL_T, DerivVar


@pytest.fixture
def ring_q():
    return RingContext(m=2, n=2, field_mode=CONSTANTS)


@pytest.fixture
def ring_t():
    return RingContext(m=2, n=2, field_mode=RATIONAL_T)


@pytest.fixture
def ring_t11():
    return RingContext(m=1, n=1, field_mode=RATIONAL_T)


@pytest.fixture
def P(ring_t):
    return lambda s: parse_poly(s, ring_t)


def rand_tpoly(rng, nt, degree=1, height=5, max_terms=2, nonzero=False):
    monos = [e for e in itertools.product(range(degree + 1), repeat=nt) if sum(e) <= degree]
    terms = {}
    for e in rng.sample(monos, k=rng.randint(1, max_terms)):
        c = rng.randint(-height, height)
        if c:
            terms[e] = Fraction(c)
    if nonzero and not terms:
        terms[(0,) * nt] = Fraction(rng.randint(1, height))
    return TPoly(nt, terms)


def rand_scalar(rng, ring, height=5, allow_t=False, nonzero=False):
    if allow_t and ring.field_mode == RATIONAL_T and rng.random() < 0.5:
        return Scalar._poly(rand_tpoly(rng, ring.nt, 1, height, nonzero=nonzero))
    num = rng.randint(-height, height)
    if nonzero and num == 0:
        num = 1
    return Scalar.from_fraction(ring.nt, Fraction(num, rng.randint(1, 3)))


def rand_var(rng, ring, families=("x",), max_order=2):
    fam = rng.choice(families)
    idx = rng.randint(1, ring.n)
    order = rng.randint(0, max_order)
    theta = [0] * ring.m
    for _ in range(order):
        if ring.m:
            theta[rng.randrange(ring.m)] += 1
    return DerivVar(fam, idx, tuple(theta))


def rand_poly(rng, ring, max_order=2, max_degree=3, max_terms=4, height=5,
              families=("x",), allow_t=False, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        mono = {}
        while deg > 0:
            v = rand_var(rng, ring, families, max_order)
            e = rng.randint(1, deg)
            mono[v] = mono.get(v, 0) + e
            deg -= e
        key = tuple(sorted(mono.items(), key=lambda it: it[0].sort_key))
        c = rand_scalar(rng, ring, height, allow_t)
        if not c.is_zero():
            terms[key] = c
    p = DiffPoly(ring, terms)
    if nonzero and p.is_zero():
        return DiffPoly.one(ring)
    return p


def rand_model_point(rng, ring, degree=2, height=5):
    return ModelPoint(
        ring,
        {j: rand_tpoly(rng, ring.nt, degree, height, max_terms=3) for j in range(1, ring.n + 1)},
    )


def _derivative_related(u, v):
    if u.index != v.index or u.family != v.family:
        return False
    return all(a >= b for a, b in zip(u.theta, v.theta)) or all(
        b >= a for a, b in zip(u.theta, v.theta)
    )


LEADER_DRAWS = 100


def _unrelated_leaders(rng, ring, size, max_order):
    """size pairwise unrelated variables drawn by rand_var. A partial set that
    leaves no unrelated variable is drawn again from scratch; ValueError
    after LEADER_DRAWS such sets."""
    space = [
        DerivVar("x", i, theta)
        for i in range(1, ring.n + 1)
        for theta in itertools.product(range(max_order + 1), repeat=ring.m)
        if sum(theta) <= max_order
    ]
    for _ in range(LEADER_DRAWS):
        leaders = []
        while len(leaders) < size:
            if all(any(_derivative_related(w, u) for u in leaders) for w in space):
                break
            v = rand_var(rng, ring, ("x",), max_order)
            if all(not _derivative_related(v, u) for u in leaders):
                leaders.append(v)
        else:
            return leaders
    raise ValueError(f"no {size} unrelated leaders found in {LEADER_DRAWS} draws")


def rand_autoreduced(rng, ring, ranking=None, size=2, max_order=2, max_lead_degree=2):
    """Construct an autoreduced system directly: distinct unrelated leaders,
    tails drawn from variables below every leader."""
    ranking = ranking or Ranking()
    leaders = _unrelated_leaders(rng, ring, size, max_order)
    polys = []
    for v in leaders:
        pool = []
        for w_idx in range(1, ring.n + 1):
            for theta in itertools.product(range(max_order + 1), repeat=ring.m):
                if sum(theta) > max_order:
                    continue
                w = DerivVar("x", w_idx, theta)
                if ranking.key(w) >= ranking.key(v):
                    continue
                if any(_derivative_related(w, u) for u in leaders):
                    continue
                pool.append(w)
        d = rng.randint(1, max_lead_degree)
        lead_mono = {v: d}
        if pool and rng.random() < 0.5:
            w = rng.choice(pool)  # non-trivial initial
            lead_mono[w] = 1
        lead_key = tuple(sorted(lead_mono.items(), key=lambda it: it[0].sort_key))
        terms = {lead_key: rand_scalar(rng, ring, 3, nonzero=True)}
        for _ in range(rng.randint(0, 2)):
            deg = rng.randint(0, 2)
            mono = {}
            while deg > 0 and pool:
                w = rng.choice(pool)
                mono[w] = mono.get(w, 0) + 1
                deg -= 1
            if rng.random() < 0.4:
                e = rng.randint(0, d - 1)
                if e:
                    mono[v] = e
            key = tuple(sorted(mono.items(), key=lambda it: it[0].sort_key))
            if key == lead_key:
                continue
            c = rand_scalar(rng, ring, 3)
            if not c.is_zero():
                terms[key] = terms.get(key, Scalar.zero(ring.nt)) + c
        polys.append(DiffPoly(ring, {m: c for m, c in terms.items() if not c.is_zero()}))
    return autoreduced_check(polys, ranking)


@pytest.fixture
def rng():
    return random.Random(20260808)
