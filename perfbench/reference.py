"""Independent output checks, run after timing.

The references read the generated input text, not the objects diffalg
parsed from it, and recompute each answer by another path: sympy for
Groebner bases, membership, derivatives, prolongation and factorisation,
and a second implementation of the documented model-point order for the
grid searches. ``check(workload, results)`` returns {job index: reason} for
every job whose output disagrees.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from fractions import Fraction
from functools import lru_cache

import sympy

from diffalg import is_reduced, poly_text
from perfbench.workloads import trailer

# --------------------------------------------------------------------------
# Text and diffalg values as sympy expressions

_JET = re.compile(r"((?:d\d+\s*)+)?([xy])(\d+)")
_T = [sympy.Symbol(f"t{j}") for j in range(1, 10)]


def _jet_name(family, index, theta_digits):
    return f"{family}{index}_{theta_digits}"


def _jet_sub(match):
    ds = "".join(sorted(re.findall(r"\d+", match.group(1) or "")))
    return _jet_name(match.group(2), match.group(3), ds)


def sym(text):
    """Parse a polynomial in diffalg's grammar: d1d2x1 -> x1_12, ^ -> **."""
    return sympy.expand(sympy.sympify(_JET.sub(_jet_sub, text).replace("^", "**")))


def _var_sym(v):
    digits = "".join(str(i + 1) * k for i, k in enumerate(v.theta))
    return sympy.Symbol(_jet_name(v.family, v.index, digits))


def _tpoly_sym(p):
    return sum(
        (sympy.Rational(q.numerator, q.denominator)
         * sympy.Mul(*[_T[j] ** k for j, k in enumerate(e)])
         for e, q in p.terms.items()),
        sympy.Integer(0),
    )


def scalar_sym(s):
    return _tpoly_sym(s.num) / _tpoly_sym(s.den)


def poly_sym(f):
    return sum(
        (scalar_sym(c) * sympy.Mul(*[_var_sym(v) ** e for v, e in mono])
         for mono, c in f.terms.items()),
        sympy.Integer(0),
    )


def _same(a, b):
    # Every value compared here has t-polynomial coefficients (the inputs'
    # denominators are constants and nothing divides by a t-polynomial).
    return sympy.expand(a - b) == 0


# --------------------------------------------------------------------------
# groebner


def _xs(nv):
    return [sympy.Symbol(_jet_name("x", j, "")) for j in range(1, nv + 1)]


def _normal(exprs, gens, order):
    """Primitive integer form with a positive leading coefficient, as a set."""
    out = set()
    for e in exprs:
        p = sympy.Poly(e, *gens, domain="QQ")
        if p.is_zero:
            continue
        _, p = p.clear_denoms(convert=True)
        _, p = p.primitive()
        if p.LC(order=order) < 0:
            p = -p
        out.add(frozenset(p.terms()))
    return out


@lru_cache(maxsize=None)
def _groebner(gens, nv, order="grevlex"):
    X = _xs(nv)
    return sympy.groebner([sym(g) for g in gens], *X, order=order), X


def _check_groebner(job, out):
    ref = job.ref
    kind = ref["check"]
    if kind == "basis":
        G, X = _groebner(tuple(ref["gens"]), ref["nv"])
        got = _normal([poly_sym(g) for g in out.basis], X, "grevlex")
        if got != _normal(G.exprs, X, "grevlex"):
            return "reduced basis differs from sympy.groebner"
    elif kind == "member":
        G, X = _groebner(tuple(ref["gens"]), ref["nv"])
        f = sym(ref["f"])
        want = G.contains(f)
        if out.member != want:
            return f"membership verdict {out.member}, sympy says {want}"
        if ref["combo"] and not out.member:
            return "a constructed combination was reported outside the ideal"
        _, rem = G.reduce(f)
        if sympy.expand(poly_sym(out.normal_form) - rem) != 0:
            return "normal form differs from sympy's remainder"
    elif kind == "macaulay":
        G, _ = _groebner(tuple(ref["gens"]), ref["nv"])
        if not G.contains(sym(ref["f"])):
            return "sympy says the combination is not in the ideal"
        if out.status != "member":
            return f"combination with every m*g of degree <= 6 reported {out.status}"
    elif kind == "eliminate":
        nv, drop = ref["nv"], ref["drop"]
        X = _xs(nv)
        dropped = [X[j - 1] for j in drop]
        rest = [x for x in X if x not in dropped]
        G = sympy.groebner([sym(g) for g in ref["gens"]], *dropped, *rest, order="lex")
        want = [g for g in G.exprs if not g.free_symbols & set(dropped)]
        got = _normal([poly_sym(g) for g in out.generators], rest, "lex")
        if got != _normal(want, rest, "lex"):
            return "eliminants differ from sympy's lex basis"
    elif kind == "saturate":
        X = _xs(ref["nv"])
        z = sympy.Symbol("z")
        G = sympy.groebner([sym(g) for g in ref["gens"]] + [1 - z * sym(ref["by"])],
                           z, *X, order="lex")
        want = [g for g in G.exprs if z not in g.free_symbols]
        got = _normal([poly_sym(g) for g in out.generators], X, "lex")
        if got != _normal(want, X, "lex"):
            return "saturation differs from sympy's"
    return None


# --------------------------------------------------------------------------
# ritt: derivatives, certificates, prolongation


def _split(name):
    family_index, _, digits = name.partition("_")
    return family_index[0], int(family_index[1:]), digits


def derive(expr, i):
    """Total derivative delta_i: d/dt_i on coefficients, jets shifted by one."""
    out = sympy.diff(expr, _T[i - 1])
    for s in expr.free_symbols:
        if s.name.startswith(("x", "y")):
            fam, idx, digits = _split(s.name)
            up = sympy.Symbol(_jet_name(fam, idx, "".join(sorted(digits + str(i)))))
            out += sympy.diff(expr, s) * up
    return out


def derive_theta(expr, theta):
    for i, k in enumerate(theta, start=1):
        for _ in range(k):
            expr = derive(expr, i)
    return expr


def _value(f, point):
    """A diffalg polynomial at {symbol name: Fraction}, by direct summation."""
    def tval(p):
        total = Fraction(0)
        for e, q in p.terms.items():
            term = q
            for j, k in enumerate(e):
                term *= point[f"t{j + 1}"] ** k
            total += term
        return total

    total = Fraction(0)
    for mono, c in f.terms.items():
        term = tval(c.num) / tval(c.den)
        for v, e in mono:
            term *= point[_var_sym(v).name] ** e
        total += term
    return total


def _certificate_ok(cert, system, texts, f_text=None, scale=None, trials=2):
    """premultiplier * input - remainder == sum of cofactor * theta(g).

    With ``f_text`` the certificate's input must also be the job's input.
    Both sides are evaluated at random rational points (a nonzero polynomial
    vanishes at such a point with probability below degree / 2**60); the
    theta-derivatives of the elements come from sympy, the values from
    direct summation, not from diffalg.
    """
    elems = [sympy.expand(poly_sym(g)) for g in system.elements]
    if sorted(map(sympy.srepr, elems)) != sorted(sympy.srepr(sym(t)) for t in texts):
        return False
    derived = {(gi, theta): derive_theta(elems[gi], theta) for gi, theta in cert.cofactors}
    if f_text is not None:
        derived["input"] = sym(f_text) * (sym(scale[0]) / sym(scale[1]) if scale else 1)
    names = {f"t{j}" for j in range(1, 10)}
    for f in (cert.premultiplier, cert.input, cert.remainder, *cert.cofactors.values()):
        names |= {_var_sym(v).name for mono in f.terms for v, _ in mono}
    for expr in derived.values():
        names |= {s.name for s in expr.free_symbols}
    rng = random.Random(len(names))
    for _ in range(trials):
        point = {n: Fraction(rng.randrange(1, 2**60), rng.randrange(1, 2**20)) for n in names}
        subs = {sympy.Symbol(n): sympy.Rational(q.numerator, q.denominator)
                for n, q in point.items()}
        lhs = (_value(cert.premultiplier, point) * _value(cert.input, point)
               - _value(cert.remainder, point))
        if f_text is not None:
            r = derived["input"].xreplace(subs)
            if _value(cert.input, point) != Fraction(int(r.p), int(r.q)):
                return False
        rhs = Fraction(0)
        for key, q in cert.cofactors.items():
            r = derived[key].xreplace(subs)
            rhs += _value(q, point) * Fraction(int(r.p), int(r.q))
        if lhs != rhs:
            return False
    return True


# d1^k x1 reduced against t1*d1x1^2 - x1^3 - t2: (steps, sha256 of the
# remainder's canonical text), pinned from the seed's output.
RITT_PINNED = {
    "d1^3 x1": (6, "ae260776a19f4822"),
    "d1^4 x1": (11, "8a8447b967784849"),
    "d1^5 x1": (17, "93396c8c798ce74f"),
    "d1^6 x1": (21, "6debfde1a6d823a4"),
}


def digest(f):
    return hashlib.sha256(poly_text(f).encode()).hexdigest()[:16]


def _tau_sym(expr, nt):
    out = sympy.diff(expr, _T[nt - 1])
    for s in expr.free_symbols:
        if s.name.startswith("x"):
            _, idx, digits = _split(s.name)
            out += sympy.diff(expr, s) * sympy.Symbol(_jet_name("y", idx, digits))
    return out


def _at_point(expr, point_texts):
    """Substitute x_j,theta by theta applied to the assignment (t-derivatives)."""
    base = {j: sym(t) for j, t in point_texts.items()}
    subs = {}
    for s in expr.free_symbols:
        if s.name.startswith("x"):
            _, idx, digits = _split(s.name)
            val = base[idx]
            for d in digits:
                val = sympy.diff(val, _T[int(d) - 1])
            subs[s] = val
    return expr.xreplace(subs)


RITT_NT = 3  # t-symbols of the ritt ring: m = 2 delta-slots plus the D-slot


def _check_ritt(job, out):
    ref = job.ref
    kind = ref["check"]
    if kind == "true":
        return None if out is True else f"{job.kind} returned {out!r}"
    if kind == "reduce":
        system = ref["ranked"]
        if not out.verify(system):
            return "certificate failed ReductionCertificate.verify"
        if not is_reduced(out.remainder, system):
            return "remainder is not reduced"
        if "pinned" in ref:
            if (out.steps, digest(out.remainder)) != RITT_PINNED[ref["pinned"]]:
                return "scaling-family remainder differs from the pinned digest"
        elif not _certificate_ok(out, system, ref["system"], ref["f"], ref.get("scale")):
            return "certificate identity fails at random rational points"
    elif kind == "coherence":
        system = ref["ranked"]
        for pair in out.pairs:
            if not pair.certificate.verify(system):
                return "a cross-derivative certificate failed verify"
            if not _certificate_ok(pair.certificate, system, ref["system"]):
                return "a cross-derivative certificate fails at random rational points"
        if out.coherent != all(p.remainder.is_zero() for p in out.pairs):
            return "coherent flag disagrees with the pair remainders"
    elif kind == "tau":
        if sympy.expand(poly_sym(out.value) - _tau_sym(sym(ref["f"]), RITT_NT)) != 0:
            return "tau differs from the sympy prolongation"
    elif kind == "d_compat":
        value = _at_point(sym(ref["f"]), ref["point"])
        d_value = sympy.diff(value, _T[RITT_NT - 1])
        if not out.ok:
            return "chain rule reported violated"
        if not (_same(scalar_sym(out.rhs), d_value) and _same(scalar_sym(out.lhs), d_value)):
            return "chain-rule values differ from sympy's D(f(a))"
    return None


# --------------------------------------------------------------------------
# grid: the documented model-point order, re-implemented


def _ladder(height):
    return [0] + [s for k in range(1, height + 1) for s in (k, -k)]


def _t_monomials(nt, degree):
    return [
        e for total in range(degree + 1)
        for e in itertools.product(range(total + 1), repeat=nt) if sum(e) == total
    ]


@lru_cache(maxsize=None)
def grid_points(nt, degree, height):
    """Single-variable model points in documented order: layered by the
    highest monomial degree used, coefficient vectors lexicographic in the
    ladder 0, 1, -1, 2, -2, ... with lower-degree monomials slowest."""
    T = _T[:nt]
    out = []
    for layer in range(degree + 1):
        monos = _t_monomials(nt, layer)
        for coeffs in itertools.product(_ladder(height), repeat=len(monos)):
            used = max((sum(e) for e, c in zip(monos, coeffs) if c), default=0)
            if used == layer:
                out.append(sympy.Poly(
                    sum((c * sympy.Mul(*[t ** k for t, k in zip(T, e)])
                         for e, c in zip(monos, coeffs) if c), sympy.Integer(0)),
                    *T))
    return out


def _sections(text):
    """{section: [polynomial texts]} and the [ring] key=value pairs."""
    out, ring, current = {}, {}, None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            name, _, rest = line[1:].partition("]")
            current = name.strip().lower()
            out.setdefault(current, [])
            if current == "ring":
                ring = dict(kv.split("=") for kv in rest.split())
            continue
        out[current].append(line)
    return out, ring


def _h_sym(lam):
    """Product of initials and separants under the orderly ranking."""
    h = sympy.Integer(1)
    for f in lam:
        jets = [s for s in f.free_symbols if s.name.startswith("x")]

        def rank(s):
            _, idx, digits = _split(s.name)
            return (len(digits), idx, tuple(-int(d) for d in digits))

        u = max(jets, key=rank)
        d = sympy.degree(f, u)
        h *= sympy.expand(f).coeff(u, d) * sympy.diff(f, u)
    return h


def _evaluate(expr, values, nt):
    """expr in jets and t-symbols at {jet symbol: Poly in t}; a Poly in t."""
    T = _T[:nt]
    jets = sorted((s for s in expr.free_symbols if s.name[0] in "xy"), key=lambda s: s.name)
    total = sympy.Poly(0, *T)
    for monom, coeff in sympy.Poly(expr, *jets).terms() if jets else [((), expr)]:
        term = sympy.Poly(coeff, *T)
        for s, k in zip(jets, monom):
            if k:
                term = term * values(s) ** k
        total = total + term
    return total


def witness_reference(text, degree, height):
    """(status, examined, witness Poly or None) by the documented search."""
    sec, ring = _sections(text)
    nt = int(ring["m"]) + 1
    lam = [sym(t) for t in sec.get("lambda", [])]
    opens = [sym(t) for t in sec.get("open", [])]
    w = [sym(t) for t in sec.get("w", [])]
    h = _h_sym(lam)
    T = _T[:nt]
    for examined, p in enumerate(grid_points(nt, degree, height), start=1):
        cache = {}

        def values(s, p=p, cache=cache):
            if s not in cache:
                fam, _, digits = _split(s.name)
                val = p if fam == "x" else p.diff(T[-1])
                for d in digits:
                    val = val.diff(T[int(d) - 1])
                cache[s] = val
            return cache[s]

        if any(not _evaluate(f, values, nt).is_zero for f in lam):
            continue
        if _evaluate(h, values, nt).is_zero:
            continue
        if any(_evaluate(g, values, nt).is_zero for g in opens):
            continue
        if all(_evaluate(g, values, nt).is_zero for g in w):
            return "found", examined, p
    return "exhausted", examined, None


# Hand-known fixture outcomes (fixture comments and the documented grid order).
GRID_PINNED = {
    ("basic.axiom", "validate"): {"status": "valid", "order_bound": "2", "exit": "0"},
    ("basic.axiom", "project"): {"status": "ok", "order_bound": "2", "exit": "0"},
    ("basic.axiom", "witness", 1, 1): {"status": "found", "examined": "6",
                                       "witness": "x1 := t2", "exit": "0"},
    ("exhaustion.axiom", "validate"): {"status": "valid", "order_bound": "2", "exit": "0"},
    ("exhaustion.axiom", "project"): {"status": "ok", "order_bound": "2", "exit": "0"},
    ("exhaustion.axiom", "witness", 1, 1): {"status": "exhausted", "examined": "27", "exit": "2"},
    ("exhaustion.axiom", "witness", 2, 1): {"status": "exhausted", "examined": "729", "exit": "2"},
    # {x1}: the only doubled sample is a = 0, b = 0.
    ("square-naive.demo", "demo"): {"status": "found", "samples": "1",
                                    "sample_violations": "0", "exit": "0"},
}


def _check_grid(job, out):
    ref = job.ref
    kind = ref["check"]
    fields = dict(trailer(out))
    fixture = ref.get("fixture")
    if fixture is not None:
        key = (fixture, kind) + ((ref["degree"], ref["height"]) if kind == "witness" else ())
        want = GRID_PINNED[key]
        got = {k: fields.get(k) for k in want}
        if got != want:
            return f"trailer {got} differs from the hand-known {want}"
    if kind == "validate" and fixture is None:
        if (fields.get("status"), fields.get("exit")) != ("valid", "0"):
            return f"generated instance did not validate: {fields}"
    if kind != "witness":
        return None
    status, examined, point = witness_reference(ref["text"], ref["degree"], ref["height"])
    if "found" in ref and (status == "found") != ref["found"]:
        return f"reference search says {status}, against the generator's outcome class"
    if (fields.get("status"), fields.get("examined")) != (status, str(examined)):
        return (f"witness search {fields.get('status')} at {fields.get('examined')}, "
                f"reference {status} at {examined}")
    if point is not None:
        lhs, _, rhs = fields.get("witness", "").partition(":=")
        if lhs.strip() != "x1" or sympy.expand(sym(rhs) - point.as_expr()) != 0:
            return f"witness {fields.get('witness')} differs from reference {point.as_expr()}"
    return None


# --------------------------------------------------------------------------
# certify


def _irreducible(expr):
    _, factors = sympy.factor_list(expr, domain="QQ")
    nonconst = [(f, k) for f, k in factors if f.free_symbols]
    return len(nonconst) == 1 and nonconst[0][1] == 1


def _check_certify(job, out):
    ref = job.ref
    if ref["check"] == "prime":
        if out.status == "prime" and not _irreducible(sym(ref["gens"][0])):
            return f"'prime' verdict on the reducible {ref['gens'][0]}"
        if out.status == "not_prime" and _irreducible(sym(ref["gens"][0])):
            return f"'not_prime' verdict on the irreducible {ref['gens'][0]}"
    elif ref["check"] == "charset":
        principal = out.primality is not None and len(ref["system"]) == 1
        if out.status == "certified" and principal and ref["field"] == "constants":
            if not _irreducible(sym(ref["system"][0])):
                return f"certified with the reducible {ref['system'][0]}"
    return None


def check(workload, results):
    """{job index: reason} for every job whose warm-up output is wrong.

    ``results`` holds each job's warm-up output, or the exception it raised.
    """
    fn = {
        "groebner": _check_groebner,
        "ritt": _check_ritt,
        "grid": _check_grid,
        "certify": _check_certify,
    }[workload.name]
    failures = {}
    for i, (job, out) in enumerate(zip(workload.jobs, results)):
        if isinstance(out, Exception):
            failures[i] = f"raised {type(out).__name__}: {out}"
            continue
        reason = fn(job, out)
        if reason:
            failures[i] = reason
    return failures
