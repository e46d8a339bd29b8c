"""Univariate polynomials over F_p against sympy's GF(p) arithmetic, and the
images at the t-point against exact rational evaluation."""

import random
from fractions import Fraction
from math import prod

import pytest

from diffalg import modp

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def _rand(rng, p, degree):
    return modp.trim([rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])


def _sym(f, p):
    return sympy.Poly(list(reversed(f)) or [0], X, modulus=p)


def _dense(poly, p):
    return modp.trim([int(c) % p for c in reversed(poly.all_coeffs())]) if poly else []


@pytest.mark.parametrize("p", [2, 3, 7, modp.P61])
def test_rem_gcd_powmod_match_sympy(p):
    rng = random.Random(p)
    for _ in range(60):
        f, g = _rand(rng, p, rng.randint(0, 6)), _rand(rng, p, rng.randint(0, 4))
        h = _rand(rng, p, rng.randint(0, 3))
        if rng.random() < 0.5:  # a common factor
            f = modp.mulmod(f, h, [0] * 12 + [1], p)
            g = modp.mulmod(g, h, [0] * 12 + [1], p)
        assert modp.rem(f, g, p) == _dense(_sym(f, p).rem(_sym(g, p)), p)
        assert modp.gcd(f, g, p) == _dense(_sym(f, p).gcd(_sym(g, p)).monic(), p)
        k = rng.randint(0, 40)
        assert modp.powmod(f, k, g, p) == _dense((_sym(f, p) ** k).rem(_sym(g, p)), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rabin_matches_sympy(p):
    rng = random.Random(100 + p)
    for _ in range(150):
        f = _rand(rng, p, rng.randint(1, 8))
        assert modp.irreducible(f, p) == _sym(f, p).is_irreducible, f


def test_known_cases():
    assert modp.irreducible([1, 0, 1], 3)  # x^2 + 1 mod 3
    assert not modp.irreducible([1, 0, 1], 2)  # (x + 1)^2
    assert not any(modp.irreducible(modp.trim([1 % p, 0, 0, 0, 1]), p)
                   for p in (2, 3, 5, 7, 11, 13))  # x^4 + 1 splits mod every p


def test_images_at_the_t_point_match_exact_evaluation():
    """image(res) is the value at the t-point mod P61, and image(res, keep)
    the dense polynomial in t_keep that takes that value at the point."""
    p = modp.P61
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 3)
        terms = {tuple(rng.randint(0, 3) for _ in range(n)):
                 Fraction(rng.choice((-5, -1, 1, 2, 7)), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 4))}
        point = modp.t_point(n)
        exact = sum(c * prod(x ** k for x, k in zip(point, e)) for e, c in terms.items())
        want = exact.numerator * pow(exact.denominator, -1, p) % p
        res = modp.residues(terms)
        assert modp.image(res) == want
        for keep in range(n):
            img = modp.image(res, keep)
            assert len(img) == max(e[keep] for e in terms) + 1
            assert sum(c * pow(point[keep], d, p) for d, c in enumerate(img)) % p == want
    assert modp.residues({(1, 0): Fraction(1), (0, 1): Fraction(1, p)}) is None
