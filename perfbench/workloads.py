"""Seeded workloads for the diffalg benchmark.

Every input is generated from the seed as text in diffalg's shared grammar
and parsed by diffalg during set-up. The references in ``reference.py``
read the same text with sympy or with their own arithmetic, never the
objects diffalg built from it.

A workload is a fixed list of jobs. A job is one user-level call into
diffalg's public API (a basis, a reduction, a witness search, ...). Jobs
that consume an earlier job's result (membership against a basis, verifying
a reduction certificate) read it from the shared ``state`` dict, so a pass
must run the jobs in list order.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import diffalg as da
from diffalg import cli
from diffalg.instances import fixture_path
from diffalg.ring import RingContext, xvar

NAMES = ("groebner", "ritt", "grid", "certify")


@dataclass
class Job:
    """One timed call. ``run`` is timed; ``summary`` (untimed) turns its
    result into a hashable value that must repeat exactly on every pass."""

    kind: str
    run: Callable[[], object]
    summary: Callable[[object], object]
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list
    workdir: Path | None = None

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def _terms_key(f):
    return frozenset(f.terms.items())


def _keep(state, key, value):
    """Store a result for the jobs that consume it, and return it."""
    state[key] = value
    return value


# --------------------------------------------------------------------------
# Text generators
#
# Each generator takes two random streams: ``shape`` draws the structure
# (supports, degrees, leaders, bound classes) from a fixed per-workload seed,
# and ``coef`` draws the coefficient values from the run's --seed. Every
# coefficient is nonzero, so the seed never collapses a shape. The work per
# pass then depends on the shapes, which every seed shares, and the figures
# of two seeds stay comparable. Every retry loop is bounded.


class Draw:
    def __init__(self, workload, seed):
        self.shape = random.Random(f"perfbench-{workload}-shapes")
        self.coef = random.Random(seed)

    def nonzero(self, height):
        return self.coef.choice([k for k in range(-height, height + 1) if k])


def _coeff_text(draw, height, with_t, nt):
    """A nonzero rational, or (with_t) a t-linear form with nonzero coefficients."""
    if with_t:
        parts = [f"({draw.nonzero(height)})*t{j}" for j in range(1, nt + 1)]
        return "(" + " + ".join(parts) + f" + ({draw.nonzero(height)}))"
    den = draw.coef.randint(1, 3)
    num = draw.nonzero(height)
    return f"({num}/{den})" if den > 1 else f"({num})"


def _var_text(family, index, theta):
    return "".join(f"d{i + 1}" * k for i, k in enumerate(theta)) + f"{family}{index}"


def _mono_text(pairs):
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in pairs)


def random_ideal_gen(draw, nv, max_terms=3, degree=3, height=2):
    """Criterion-6 style generator: up to max_terms monomials of degree
    1..degree in x1..x{nv}, integer coefficients, optional constant."""
    monos = [
        e for e in itertools.product(range(degree + 1), repeat=nv) if 0 < sum(e) <= degree
    ]
    parts = [
        f"({draw.nonzero(height)})*" + _mono_text((f"x{i + 1}", k) for i, k in enumerate(e) if k)
        for e in draw.shape.sample(monos, k=min(len(monos), draw.shape.randint(1, max_terms)))
    ]
    if draw.shape.random() < 0.5:
        parts.append(f"({draw.nonzero(height)})")
    return " + ".join(parts)


def katsura_text(n):
    """katsura-n over x1..x{n+1} (x{k+1} stands for u_k)."""
    gens = [" + ".join(("" if l == 0 else "2*") + f"x{l + 1}" for l in range(n + 1)) + " - 1"]
    for m in range(n):
        terms = [
            f"x{abs(l) + 1}*x{abs(m - l) + 1}"
            for l in range(-n, n + 1)
            if abs(m - l) <= n
        ]
        gens.append(" + ".join(terms) + f" - x{m + 1}")
    return gens


CYCLIC4 = [
    "x1 + x2 + x3 + x4",
    "x1*x2 + x2*x3 + x3*x4 + x4*x1",
    "x1*x2*x3 + x2*x3*x4 + x3*x4*x1 + x4*x1*x2",
    "x1*x2*x3*x4 - 1",
]
# Implicitisation: drop x4, x5 to leave one equation in x1, x2, x3.
ELIMINATE = (["x1 - x4^2 - x5", "x2 - x4*x5", "x3 - x5^2 + x4"], 5, (4, 5))
SATURATE = (CYCLIC4, 4, "x1")


def _order_key(v):
    """Orderly ranking on (index, theta): order first, then index, then theta.
    Matches diffalg.Ranking() on the x-family."""
    return (sum(v[1]), v[0], v[1])


def _related(u, v):
    if u[0] != v[0]:
        return False
    return all(a >= b for a, b in zip(u[1], v[1])) or all(b >= a for a, b in zip(u[1], v[1]))


def _rand_var(rng, m, n, max_order):
    theta = [0] * m
    for _ in range(rng.randint(0, max_order)):
        theta[rng.randrange(m)] += 1
    return (rng.randint(1, n), tuple(theta))


def autoreduced_text(draw, m, n, size, max_order=2, max_lead_degree=2, with_t=True,
                     attempts=50):
    """Element texts of an autoreduced system with pairwise unrelated leaders.

    Leader draws are bounded by ``attempts``; when the draws run out (two
    order-0 leaders block every other variable, for example) the system is
    returned with fewer elements, never fewer than one.
    """
    rng = draw.shape
    leaders = []
    for _ in range(attempts):
        if len(leaders) == size:
            break
        v = _rand_var(rng, m, n, max_order)
        if all(not _related(v, u) for u in leaders):
            leaders.append(v)
    out = []
    for v in leaders:
        pool = [
            (j, theta)
            for j in range(1, n + 1)
            for theta in itertools.product(range(max_order + 1), repeat=m)
            if sum(theta) <= max_order
            and _order_key((j, theta)) < _order_key(v)
            and not any(_related((j, theta), u) for u in leaders)
        ]
        d = rng.randint(1, max_lead_degree)
        lead = [(_var_text("x", *v), d)]
        if pool and rng.random() < 0.5:
            lead.append((_var_text("x", *rng.choice(pool)), 1))  # non-trivial initial
        t_coeff = lambda: with_t and rng.random() < 0.5  # noqa: E731
        terms = {_mono_text(lead): t_coeff()}
        for _ in range(rng.randint(0, 2)):
            mono = {}
            for _ in range(rng.randint(0, 2) if pool else 0):
                w = _var_text("x", *rng.choice(pool))
                mono[w] = mono.get(w, 0) + 1
            if d > 1 and rng.random() < 0.4:
                mono[_var_text("x", *v)] = rng.randint(1, d - 1)
            terms.setdefault(_mono_text(sorted(mono.items())), t_coeff())
        out.append(" + ".join(
            _coeff_text(draw, 3, t, m + 1) + (f"*{mono}" if mono else "")
            for mono, t in terms.items()
        ))
    return out


def random_poly_text(draw, m, n, max_order=2, max_degree=2, max_terms=3):
    """A polynomial with t-coefficients. Order-3 derivatives or degree 3 leave
    a tail of reductions that run for seconds (coefficient growth)."""
    rng = draw.shape
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = {}
        deg = rng.randint(0, max_degree)
        while deg > 0:
            v = _var_text("x", *_rand_var(rng, m, n, max_order))
            e = rng.randint(1, deg)
            mono[v] = mono.get(v, 0) + e
            deg -= e
        terms.setdefault(_mono_text(sorted(mono.items())), rng.random() < 0.5)
    return " + ".join(
        _coeff_text(draw, 5, t, m + 1) + (f"*{mono}" if mono else "")
        for mono, t in terms.items()
    )


def random_tpoly_text(draw, nt, degree=2, height=3, max_terms=3):
    monos = [e for e in itertools.product(range(degree + 1), repeat=nt) if sum(e) <= degree]
    return " + ".join(
        f"({draw.nonzero(height)})" + "".join(f"*t{j + 1}^{k}" for j, k in enumerate(e) if k)
        for e in draw.shape.sample(monos, k=min(len(monos), draw.shape.randint(1, max_terms)))
    )


# --------------------------------------------------------------------------
# groebner: constants field, m = 0


def _alg_ideal(texts, nv, order="grevlex"):
    ring = RingContext(m=0, n=nv)
    X = tuple(xvar(ring, j) for j in range(1, nv + 1))
    gens = tuple(da.parse_poly(t, ring) for t in texts)
    return da.AlgIdeal(ring, X, gens, order), ring


def _basis_summary(ideal):
    return tuple(_terms_key(g) for g in ideal.basis)


def _gens_summary(ideal):
    return tuple(_terms_key(g) for g in ideal.generators)


def build_groebner(seed, n_random=100):
    draw = Draw("groebner", seed)
    jobs = []
    state = {}

    def basis_job(kind, texts, nv, key):
        ideal, _ = _alg_ideal(texts, nv)
        jobs.append(Job(
            kind,
            lambda: _keep(state, key, da.buchberger(ideal)),
            _basis_summary,
            {"check": "basis", "gens": texts, "nv": nv},
        ))

    # katsura-4 (about 3 s) and linear-flow.demo (about 3 s) are left out:
    # one multi-second job is an average of the shared machine's speed state
    # and stretched a pass to 5-9 s, too few passes for a steady best-of.
    basis_job("buchberger.katsura-3", katsura_text(3), 4, "k3")
    basis_job("buchberger.cyclic-4", CYCLIC4, 4, "c4")

    texts, nv, drop = ELIMINATE
    elim_ideal, ring = _alg_ideal(texts, nv)
    drop_vars = {xvar(ring, j) for j in drop}
    jobs.append(Job("eliminate", lambda: da.eliminate(elim_ideal, drop_vars), _gens_summary,
                    {"check": "eliminate", "gens": texts, "nv": nv, "drop": drop}))
    texts, nv, by = SATURATE
    sat_ideal, ring = _alg_ideal(texts, nv)
    h = da.parse_poly(by, ring)
    jobs.append(Job("saturate", lambda: da.saturate(sat_ideal, h), _gens_summary,
                    {"check": "saturate", "gens": texts, "nv": nv, "by": by}))

    for i in range(n_random):
        gens = [random_ideal_gen(draw, 3) for _ in range(draw.shape.randint(1, 3))]
        # multipliers of degree <= 2, height 1: every deg(m*g) <= 5 <= 6
        mults = [random_ideal_gen(draw, 3, 1, 2, 1) for _ in gens]
        probe = random_ideal_gen(draw, 3)
        raw, ring = _alg_ideal(gens, 3)
        key = f"r{i}"
        jobs.append(Job(
            "buchberger.random",
            lambda raw=raw, key=key: _keep(state, key, da.buchberger(raw)),
            _basis_summary,
            {"check": "basis", "gens": gens, "nv": 3},
        ))
        combo_text = " + ".join(f"({g})*({m})" for g, m in zip(gens, mults))
        combo = da.parse_poly(combo_text, ring)
        member = [] if combo.is_zero() else [("combo", combo, combo_text)]
        member.append(("probe", da.parse_poly(probe, ring), probe))
        for what, f, text in member:
            jobs.append(Job(
                "ideal_member." + what,
                lambda f=f, key=key: da.ideal_member(f, state[key]),
                lambda cert: (cert.member, _terms_key(cert.normal_form)),
                {"check": "member", "gens": gens, "nv": 3, "f": text, "combo": what == "combo"},
            ))
        if not combo.is_zero():
            jobs.append(Job(
                "macaulay_member",
                lambda f=combo, raw=raw: da.macaulay_member(f, raw, 6),
                lambda res: res.status,
                {"check": "macaulay", "gens": gens, "nv": 3, "f": combo_text},
            ))
    return Workload("groebner", jobs)


# --------------------------------------------------------------------------
# ritt: rational_t field, m = 2, n = 2

RITT_SCALING = "t1*d1x1^2 - x1^3 - t2"
RITT_KS = range(3, 7)
RITT_RATIONAL_KS = (3, 4)
RITT_RATIONAL = ("t2 - 1", "t1 + t3 + 2")


def _cert_summary(cert):
    return (
        _terms_key(cert.remainder),
        _terms_key(cert.premultiplier),
        cert.steps,
        frozenset((k, _terms_key(q)) for k, q in cert.cofactors.items()),
    )


def _coherence_summary(rep):
    return (rep.coherent, tuple(_cert_summary(p.certificate) for p in rep.pairs))


def build_ritt(seed, n_random=60, n_points=30):
    draw = Draw("ritt", seed)
    ring = RingContext(m=2, n=2, field_mode="rational_t")
    ranking = da.Ranking()
    jobs = []
    state = {}

    def reduction_jobs(key, system, f, ref):
        jobs.append(Job(
            "full_reduce",
            lambda: _keep(state, key, da.full_reduce(f, system)),
            _cert_summary, dict(ref, check="reduce", ranked=system),
        ))
        jobs.append(Job("verify", lambda: state[key].verify(system), bool,
                        {"check": "true"}))
        jobs.append(Job("is_reduced", lambda: da.is_reduced(state[key].remainder, system),
                        bool, {"check": "true"}))

    scaling = da.autoreduced_check([da.parse_poly(RITT_SCALING, ring)], ranking)
    for k in RITT_KS:
        text = "d1" * k + "x1"
        reduction_jobs(f"s{k}", scaling, da.parse_poly(text, ring),
                       {"system": [RITT_SCALING], "f": text, "pinned": f"d1^{k} x1"})

    # The same family with a rational-function coefficient: every scalar
    # product then has a t-polynomial denominator (tpoly_gcd). Fixed, like
    # the family: its cost depends on num/den and dominates a pass.
    num, den = RITT_RATIONAL
    for k in RITT_RATIONAL_KS:
        text = "d1" * k + "x1"
        f = da.parse_poly(text, ring).scale(
            da.Scalar(da.parse_tpoly(num, ring), da.parse_tpoly(den, ring)))
        reduction_jobs(f"q{k}", scaling, f,
                       {"system": [RITT_SCALING], "f": text, "scale": (num, den)})

    for i in range(n_random):
        elems = autoreduced_text(draw, 2, 2, draw.shape.randint(1, 2))
        f_text = random_poly_text(draw, 2, 2)
        system = da.autoreduced_check([da.parse_poly(t, ring) for t in elems], ranking)
        reduction_jobs(f"r{i}", system, da.parse_poly(f_text, ring),
                       {"system": elems, "f": f_text})
        jobs.append(Job("coherence_check", lambda system=system: da.coherence_check(system),
                        _coherence_summary,
                        {"check": "coherence", "system": elems, "ranked": system}))

    for i in range(n_points):
        f_text = random_poly_text(draw, 2, 2)
        a_texts = {j: random_tpoly_text(draw, ring.nt) for j in (1, 2)}
        f = da.parse_poly(f_text, ring)
        pt = da.ModelPoint(ring, {j: da.parse_tpoly(t, ring) for j, t in a_texts.items()})
        jobs.append(Job("tau", lambda f=f: da.tau(f), lambda t: _terms_key(t.value),
                        {"check": "tau", "f": f_text}))
        jobs.append(Job(
            "d_compatibility_check",
            lambda f=f, pt=pt: da.d_compatibility_check(f, pt),
            lambda rep: (rep.ok, rep.lhs, rep.rhs),
            {"check": "d_compat", "f": f_text, "point": a_texts},
        ))
    return Workload("ritt", jobs)


# --------------------------------------------------------------------------
# grid: axiom instances through the CLI, in process

GRID_BOUNDS = ((1, 1), (1, 2), (2, 1))


def grid_instance_text(draw, degree, height, want_found):
    """An instance shaped like basic.axiom / exhaustion.axiom.

    The shape fixes the form of w; ``want_found`` fixes whether the search
    finds a witness, and the seed picks w's constant from that class. Only constant
    model points can satisfy either form (d1 x1 = 0 leaves x1 in t2 alone),
    so the classes follow from the coefficient ladder. The [open]
    inequation's constant lies outside every ladder: it is evaluated at
    every candidate but never excludes one, so it cannot flip the class.
    """
    ladder = range(-height, height + 1)
    shape = draw.shape
    if shape.random() < 0.5:
        e = shape.randint(1, 3)
        found = {y ** e for y in ladder}
        w = "y1" + (f"^{e}" if e > 1 else "") + " - ({c})"
    else:
        found = {0, 1, -1}  # y1 = c*x1 + 1 needs x1 = -1/c constant, or c = 0
        w = "y1 - ({c})*x1 - 1"
    pool = [c for c in range(-4, 5) if (c in found) == want_found]
    w = w.format(c=draw.coef.choice(pool))
    open_extra = f"x1 - ({draw.coef.choice((3, -3, 4, -4))})" if shape.random() < 0.5 else ""
    return (
        "[ring] m=1 n=1 field=rational_t\n"
        "[lambda]\nd1 x1\n"
        f"[open]\n{open_extra}\n"
        f"[W]\nd1 x1\nd1 y1\n{w}\n"
        f"[bounds] order=2 degree={degree} height={height}\n"
    )


def trailer(out):
    """The CLI's machine trailer (and exit code) as sorted (key, value) pairs."""
    code, text = out
    _, _, tail = text.rpartition("---\n")
    fields = dict(line.split(": ", 1) for line in tail.splitlines() if ": " in line)
    fields["exit"] = str(code)
    return tuple(sorted(fields.items()))


def _cli_job(kind, argv, ref):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Job(kind, run, trailer, ref)


def build_grid(seed, n_random=48, scratch=None):
    draw = Draw("grid", seed)
    workdir = Path(tempfile.mkdtemp(prefix="grid-", dir=scratch))
    jobs = []
    fixtures = {}
    for name in ("basic.axiom", "exhaustion.axiom", "square-naive.demo"):
        text = fixture_path(name).read_text(encoding="utf-8")
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        fixtures[name] = (str(path), text)

    for name in ("basic.axiom", "exhaustion.axiom"):
        path, text = fixtures[name]
        for what in ("validate", "project", "witness"):
            jobs.append(_cli_job(f"axiom.{what}.fixture", ["axiom", what, path, "--machine"],
                                 {"check": what, "text": text, "fixture": name,
                                  "degree": 1, "height": 1}))
    path, text = fixtures["exhaustion.axiom"]
    jobs.append(_cli_job("axiom.witness.fixture",
                         ["axiom", "witness", path, "--degree", "2", "--height", "1", "--machine"],
                         {"check": "witness", "text": text, "fixture": "exhaustion.axiom",
                          "degree": 2, "height": 1}))
    path, _ = fixtures["square-naive.demo"]
    jobs.append(_cli_job("demo.naive-vs-tau", ["demo", "naive-vs-tau", path, "--machine"],
                         {"check": "demo", "fixture": "square-naive.demo"}))

    for i in range(n_random):
        # Equal thirds per bound class. Half the (1,1) and (1,2) instances
        # exhaust their grid; at (2,1) every instance finds a witness, since
        # one 729-point exhaustion (the fixture) already costs as much as
        # the rest of the seeded instances together.
        degree, height = GRID_BOUNDS[i % len(GRID_BOUNDS)]
        found = degree == 2 or draw.shape.random() < 0.5
        text = grid_instance_text(draw, degree, height, found)
        path = workdir / f"instance-{i}.axiom"
        path.write_text(text, encoding="utf-8")
        for what in ("validate", "witness"):
            jobs.append(_cli_job(f"axiom.{what}", ["axiom", what, str(path), "--machine"],
                                 {"check": what, "text": text, "degree": degree,
                                  "height": height, "found": found}))
    return Workload("grid", jobs, workdir)


# --------------------------------------------------------------------------
# certify: characteristic-set certification and the primality oracle


def _product_text(draw, nv):
    return f"({random_ideal_gen(draw, nv, 3, 2, 3)})*({random_ideal_gen(draw, nv, 3, 2, 3)})"


def build_certify(seed, n_systems=40, n_principal=40):
    draw = Draw("certify", seed)
    ranking = da.Ranking()
    config = da.PrimalityConfig(seed=0)
    jobs = []
    for i in range(n_systems):
        mode = ("constants", "rational_t")[i % 2]
        ring = RingContext(m=2, n=2, field_mode=mode)
        elems = autoreduced_text(draw, 2, 2, draw.shape.randint(1, 2),
                                 with_t=mode == "rational_t")
        polys = [da.parse_poly(t, ring) for t in elems]
        jobs.append(Job(
            "charset_certify",
            lambda polys=polys: da.charset_certify(polys, ranking, config),
            lambda c: (c.status, c.stage, c.primality.status if c.primality else None),
            {"check": "charset", "system": elems, "field": mode},
        ))
    for i in range(n_principal):
        nv = 1 + i % 2
        text = _product_text(draw, nv) if i % 4 < 2 else random_ideal_gen(draw, nv, 4, 3, 3)
        ideal, _ = _alg_ideal([text], nv)
        jobs.append(Job(
            "primality_oracle",
            lambda ideal=ideal: da.primality_oracle(ideal, config),
            lambda v: (v.status, v.method),
            {"check": "prime", "gens": [text], "nv": nv},
        ))
    return Workload("certify", jobs)


def build(name, seed, scratch=None, small=False):
    """The named workload for a seed; ``small`` shrinks the seeded part for tests."""
    if name == "groebner":
        return build_groebner(seed, 8 if small else 100)
    if name == "ritt":
        return build_ritt(seed, 6 if small else 60, 4 if small else 30)
    if name == "grid":
        return build_grid(seed, 6 if small else 48, scratch)
    if name == "certify":
        return build_certify(seed, 8 if small else 40, 8 if small else 40)
    raise ValueError(f"unknown workload {name!r}")
