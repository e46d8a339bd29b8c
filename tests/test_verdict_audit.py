"""The membership words against sympy, an independent route.

`ideal_member`'s member/non-member verdict is checked against
`sympy.groebner(...).contains` on seeded constant-coefficient ideals, and
`sat_ideal_member`'s against the saturation sympy computes as the z-free
part of a lex basis of Lambda + (1 - z*H), on seeded order-0 triangular
systems in one derivation and two x-variables. For an order-0 f,
[Lambda]:H^inf meets Q[x] in (Lambda):H^inf, so that basis decides f.
Each outcome occurs at least 10 times in the draw: member and non-member;
in the saturation with a zero and with a nonzero full remainder, and not in
it.
The module uses sympy through pytest.importorskip, as tests/test_modp.py
does, and is skipped where sympy is missing.
"""

import random
from collections import Counter

import pytest

from diffalg import (
    AlgIdeal,
    Ranking,
    RingContext,
    buchberger,
    charset_certify,
    ideal_member,
    parse_poly,
    poly_text,
    sat_ideal_member,
)
from diffalg.ring import RATIONAL_T, xvar

sympy = pytest.importorskip("sympy")

X1, X2, X3, Z = sympy.symbols("x1 x2 x3 z")
R3 = RingContext(m=0, n=3)
R12 = RingContext(m=1, n=2, field_mode=RATIONAL_T)


def _rand(rng, syms, degree, terms, height=3):
    """A random integer polynomial of total degree at most degree."""
    monos = [sympy.Integer(1), *syms]
    for _ in range(degree - 1):
        monos = sorted({a * s for a in monos for s in syms} | set(monos),
                       key=sympy.default_sort_key)
    return sympy.expand(sum(rng.choice([-1, 1]) * rng.randint(1, height) * m
                            for m in rng.sample(monos, min(terms, len(monos)))))


def _diff(expr, ring):
    return parse_poly(str(sympy.expand(expr)).replace("**", "^"), ring)


def _sym(f):
    return sympy.sympify(poly_text(f).replace("^", "**"))


def test_ideal_member_agrees_with_sympy():
    rng = random.Random(1527)
    syms = (X1, X2, X3)
    variables = tuple(xvar(R3, j) for j in (1, 2, 3))
    seen = Counter()
    for _ in range(40):
        gens = [_rand(rng, syms, rng.randint(1, 2), rng.randint(2, 3))
                for _ in range(rng.randint(2, 3))]
        ideal = buchberger(AlgIdeal(R3, variables, tuple(_diff(g, R3) for g in gens)))
        basis = sympy.groebner(gens, *syms, order="grevlex")
        combination = sum(_rand(rng, syms, 1, 2) * g for g in gens)
        for f in (combination, _rand(rng, syms, 2, 4)):
            member = ideal_member(_diff(f, R3), ideal).member
            assert member == basis.contains(f), (gens, f)
            seen[member] += 1
    assert seen[True] >= 10 and seen[False] >= 10, seen


def _systems(rng):
    """Seeded order-0 triangular systems: an element in x1, then one with
    leader x2. Every other one is no regular chain, {x1^2 - a^2, (x1 - a)*x2 + b}
    or {x1^3 - c*x1, x1*x2^2 + b*x2}. In the second, (Lambda) has the component
    (x1, x2), on which the initial x1 vanishes, so the saturation is larger
    than (Lambda)."""
    for k in range(30):
        a = rng.randint(1, 3)
        b = rng.choice([-1, 1]) * rng.randint(1, 3)
        c = rng.choice([2, 3, 5, 6, 7]) * rng.choice([-1, 1])
        if k % 4 == 0:
            yield [X1**2 - a**2, (X1 - a) * X2 + b]
        elif k % 4 == 2:
            yield [X1**3 - c * X1, X1 * X2**2 + b * X2]
        else:
            top = (X1 + a) * X2 if k % 4 == 1 else X2**2 + a * X1 * X2
            yield [X1**2 - c, top + b * X1 + rng.randint(-2, 2)]


def _sympy_saturation(elements, h):
    lex = sympy.groebner([*elements, 1 - Z * h], Z, X2, X1, order="lex")
    return sympy.groebner([g for g in lex.exprs if Z not in g.free_symbols],
                          X2, X1, order="lex")


def test_sat_ideal_member_agrees_with_sympy():
    rng = random.Random(1528)
    seen = Counter()
    for elements in _systems(rng):
        cert = charset_certify([_diff(e, R12) for e in elements], Ranking())
        if cert.status == "rejected":
            continue
        system = cert.system
        h = 1 if system.h is None else _sym(system.h)
        saturation = _sympy_saturation([_sym(e) for e in system.elements], h)
        queries = [sum(_rand(rng, (X1, X2), 1, 2) * e for e in elements),
                   _rand(rng, (X1, X2), 2, 3), _rand(rng, (X1, X2), 1, 2)]
        queries += [*saturation.exprs, *(sum(_rand(rng, (X1, X2), 1, 2) * g
                                             for g in saturation.exprs) for _ in range(2))]
        for f in queries:
            member, rc = sat_ideal_member(_diff(f, R12), cert)
            assert rc.verify(system)
            assert member == saturation.contains(f), (elements, f)
            if not member:
                seen["not in the saturation"] += 1
            elif rc.remainder.is_zero():
                seen["zero full remainder"] += 1
            else:
                seen["nonzero full remainder"] += 1
    assert min(seen.values()) >= 10 and len(seen) == 3, seen
