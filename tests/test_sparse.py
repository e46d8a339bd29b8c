"""Packed monomials (sparse.Packing) against the exponent-vector reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction
from math import gcd

from diffalg.sparse import (
    GREVLEX, LEX, Overflow, Packing, add, divides, ediv, elcm, emul, monomials, mul, scale,
)


def _order_key(order):
    """The monomial order as a sort key on exponent vectors."""
    if order == GREVLEX:
        return lambda e: (sum(e), tuple(-k for k in reversed(e)))
    return lambda e: e


def _fits(codec, e):
    return (max(e, default=0) if codec.lex else sum(e)) <= codec.top


@st.composite
def _vector(draw, codec):
    """An exponent vector the packing holds, often all zero or at its limit."""
    left = codec.top
    e = []
    for _ in range(codec.n):
        k = draw(st.one_of(st.just(0), st.just(left), st.integers(0, left)))
        e.append(k)
        if not codec.lex:
            left -= k
    return tuple(e)


@st.composite
def _cases(draw):
    codec = Packing(
        draw(st.sampled_from((GREVLEX, LEX))),
        draw(st.integers(0, 4)),
        draw(st.sampled_from((2, 3, 8, 16, 40, 64))),
    )
    return codec, [draw(_vector(codec)) for _ in range(4)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_cases())
def test_packing_matches_exponent_vectors(case):
    codec, (a, b, c, d) = case
    key = _order_key(codec.order)
    A, B, C, D = map(codec.encode, (a, b, c, d))
    assert codec.encode((0,) * codec.n) == codec.one
    assert codec.decode(A) == a and codec.decode(B) == b
    assert (A < B) == (key(a) < key(b)) and (A == B) == (a == b)
    assert codec.divides(A, B) == divides(a, b)
    assert A + codec.offset(B) == codec.mul(A, B) and A + codec.offset(codec.one) == A
    if divides(b, a):
        assert codec.decode(A - B + codec.one) == ediv(a, b)
        assert codec.decode(codec.one + codec.offset(A, B)) == ediv(a, b)
        assert codec.unpack(codec.shifted({B: 3}, codec.offset(A, B))) == {a: 3}
    if _fits(codec, elcm(a, b)):
        assert codec.decode(codec.lcm(A, B)) == elcm(a, b)
    else:
        with pytest.raises(Overflow):
            codec.lcm(A, B)
    # products: exact, in order and guard-flagged even past the fields
    ab, cd = emul(a, b), emul(c, d)
    AB, CD = codec.mul(A, B), codec.mul(C, D)
    assert (AB < CD) == (key(ab) < key(cd)) and (AB == CD) == (ab == cd)
    if _fits(codec, ab):
        assert not AB & codec.guard and codec.decode(AB) == ab
    else:
        assert AB & codec.guard
        with pytest.raises(Overflow):
            codec.encode(ab)


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_lcm_is_the_fieldwise_max(order):
    """The packed lcm against encode(elcm(...)) on random vectors with
    exponents up to top, n = 1..6; under grevlex an lcm of total degree
    past top raises Overflow, as encode does."""
    rng = random.Random(16)

    def vector(codec):
        left, e = codec.top, []
        for _ in range(codec.n):
            k = rng.choice((0, left, rng.randint(0, left)))
            e.append(k)
            if not codec.lex:
                left -= k
        rng.shuffle(e)
        return tuple(e)

    overflowed = 0
    for n in range(1, 7):
        for width in (2, 3, 5, 8, 13):
            codec = Packing(order, n, width)
            for _ in range(200):
                A, B = codec.encode(vector(codec)), codec.encode(vector(codec))
                l = elcm(codec.decode(A), codec.decode(B))
                if _fits(codec, l):
                    assert codec.lcm(A, B) == codec.lcm(B, A) == codec.encode(l)
                else:
                    overflowed += 1
                    with pytest.raises(Overflow):
                        codec.lcm(A, B)
    assert overflowed > 100 or order == LEX


@pytest.mark.parametrize("order", (GREVLEX, LEX))
def test_packed_monomials_follow_the_enumeration(order):
    for n in range(4):
        codec = Packing(order, n, 4)
        for degree in range(codec.top + 1):
            want = [(sum(e), codec.encode(e)) for e in monomials(n, degree)]
            assert codec.monomials(degree) == want
        with pytest.raises(Overflow):
            codec.monomials(codec.top + 1)


def test_product_flags_an_outgrown_exponent():
    codec = Packing(LEX, 2, 4)  # exponents up to 7
    p = {codec.encode((4, 0)): 1, codec.encode((0, 1)): 2}
    with pytest.raises(Overflow):  # (4, 0) squared
        codec.product(p, p)
    q = {codec.encode((3, 0)): 1}
    assert codec.unpack(codec.product(p, q)) == {(7, 0): 1, (3, 1): 2}


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_lex_packing_is_the_sum_of_shifted_fields(width):
    """Byte-wide lex fields pack through struct, others by shifts; both give
    the sum of shifted exponents, and both raise Overflow past top, whether
    the exponent sets only the guard bit or outgrows the whole field."""
    codec = Packing(LEX, 3, width)
    assert (codec.struct is not None) == (width <= 64)
    top = codec.top
    for e in [(0, 0, 0), (1, 2, 3), (top, 0, top), (top, top, top)]:
        x = codec.encode(e)
        assert x == sum(k << (width * (2 - i)) for i, k in enumerate(e))
        assert codec.decode(x) == e
    for e in [(top + 1, 0, 0), (0, 0, top + 1), (0, 2 * top + 1, 0), (0, 0, 1 << width)]:
        with pytest.raises(Overflow):
            codec.encode(e)


def test_widening_reruns_at_double_the_width():
    def run(codec):
        if codec.top < 1000:
            raise Overflow
        return codec.width

    assert Packing(LEX, 2, 8).widening(run) == 16
    assert Packing(GREVLEX, 2, 16).widening(run) == 16


def test_fit_takes_the_width_from_the_input():
    assert Packing.fit(GREVLEX, 2, [{(1, 2): 1}]).top == 127
    assert Packing.fit(LEX, 2, [{(40, 3): 1}]).top >= 160
    assert Packing.fit(GREVLEX, 2, [{(40, 3): 1}], degree=300).top >= 1200
    assert Packing.fit(GREVLEX, 2, [{(99999999999, 0): 1}]).top >= 4 * 99999999999
    assert Packing(LEX, 3, 8).wider().width == 16
    with pytest.raises(ValueError, match="unknown monomial order"):
        Packing("deglex", 2, 8)


def _field_step(c, bc):
    return 1, c / bc


def _integer_step(c, bc):
    g = gcd(c, bc) * (1 if bc > 0 else -1)
    return bc // g, c // g


@st.composite
def _divisions(draw):
    order, n = draw(st.sampled_from((GREVLEX, LEX))), draw(st.integers(1, 3))
    monos = monomials(n, 3)
    poly = st.dictionaries(st.sampled_from(monos), st.integers(-3, 3).filter(bool), max_size=4)
    return order, n, draw(poly), draw(st.lists(poly.filter(bool), max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_divisions(), st.sampled_from((_field_step, _integer_step)))
def test_divide_gives_a_division_identity(case, step):
    """scale*p == sum(q_i * b_i) + rem, no remainder term divisible by a
    basis leader, scale 1 for the field step; recomputed at a wider packing
    when a lex step overflows, as the backend does."""
    order, n, p, basis = case
    if step is _field_step:
        p = {e: Fraction(c) for e, c in p.items()}
    codec = Packing.fit(order, n, [p, *basis])
    while True:
        try:
            rem, quots, k = codec.divide(codec.pack(p), [codec.pack(b) for b in basis], step)
            break
        except Overflow:
            codec = codec.wider()
    assert k == 1 or step is _integer_step
    packed = codec.pack(p), [codec.pack(b) for b in basis]
    assert codec.divide(*packed, step, quotients=False) == (rem, [None] * len(basis), k)
    rem, quots = codec.unpack(rem), [codec.unpack(q) for q in quots]
    total = rem
    for q, b in zip(quots, basis):
        total = add(total, mul(q, b))
    assert total == scale(p, k)
    leads = [codec.decode(max(codec.pack(b))) for b in basis]
    assert not any(divides(le, e) for e in rem for le in leads)
