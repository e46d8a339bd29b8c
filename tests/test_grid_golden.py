"""Pinned digest of the grid searches over axiom instances and demo files.

Every search walks the documented model-point order and stops at the first
point that passes its checks, so any change that keeps its meaning must give
the same doubled samples in the same order, the same demo reports, the same
first open-set point, the same first witness, the same ``examined`` counts and
the same per-candidate failure labels. The digest covers ``doubled_samples``
on the [lambda] systems of both demo fixtures, ``naive_vs_tau_demo`` on both
demo fixtures at their own bounds, and ``instance_validate`` plus
``witness_search`` on both axiom fixtures at three (degree, height) bounds.
An inline instance with a non-constant H and an inequation adds doubled
samples away from both, and a trail whose labels come from every kind of
check: system, H, inequation and W.

Every value is written with the printers of ``diffalg.parser`` (points with
``point_text``, y-points naming the y family, scalars with ``scalar_text``,
polynomials with ``poly_text``), the text the CLI reports show. Each printer
is canonical, so two values print alike exactly when they are equal, and the
digest pins the same values as a digest of their reprs would; a change to the
searches is reviewed as a diff of printed lines.
"""

import hashlib

from diffalg import (
    PrimalityConfig,
    autoreduced_check,
    charset_certify,
    doubled_samples,
    instance_validate,
    naive_vs_tau_demo,
    witness_search,
)
from diffalg.parser import point_text, poly_text, scalar_text
from diffalg.instances import (
    build_axiom_instance,
    fixture_path,
    load_instance_file,
    parse_instance_text,
)

DIGEST = "33138b3a18125816c8145eb6929dea5b503c8b73de306eba99d81b320bc89db5"
DEMOS = ("linear-flow.demo", "square-naive.demo")
AXIOMS = ("basic.axiom", "exhaustion.axiom")
BOUNDS = ((1, 1), (2, 1), (1, 2))
OPEN_SET = """
[ring] m=1 n=2 field=rational_t
[lambda]
x2*d1x1 - x1
[open]
x2 - 1
[W]
x2*d1x1 - x1
y2*d1x1 + x2*d1y1 - y1
y2 - 1
"""


def _text(show, value):
    """show(value), or "None" for a value a search did not find."""
    return "None" if value is None else show(value)


def _ypoint_text(pt):
    return point_text(pt, "y")


def _samples(tag, pairs):
    yield f"{tag} doubled_samples: {len(pairs)}"
    for i, (pt, ypt) in enumerate(pairs):
        yield f"{tag} sample {i}: {point_text(pt)} | {_ypoint_text(ypt)}"


def _searches(tag, inst, degree, height):
    val = instance_validate(inst, degree=degree, height=height)
    yield f"{tag} validate: {val.status} {val.failed} o_point={_text(point_text, val.o_point)}"
    rep = witness_search(inst, val, degree=degree, height=height)
    yield f"{tag} witness: {rep.status} {_text(point_text, rep.witness)} examined={rep.examined}"
    for c in rep.checks:
        yield f"{tag} check {c.label} {scalar_text(c.value)} {c.want_zero}"
    for pt, label in rep.trail:
        yield f"{tag} trail {point_text(pt)}: {label}"


def _pair_text(pair):
    pt, ypt = pair
    return f"({point_text(pt)}, {_ypoint_text(ypt)})"


def _golden_lines():
    lines = []
    for name in DEMOS:
        data = load_instance_file(fixture_path(name))
        system = autoreduced_check(data.lam, data.ranking)
        lines.extend(_samples(name, doubled_samples(system, 50, degree=2, height=1)))
        cert = charset_certify(data.lam, data.ranking, PrimalityConfig(seed=0))
        rep = naive_vs_tau_demo(data.naive, cert, degree=data.bounds.get("degree", 1),
                                height=data.bounds.get("height", 1))
        lines.append(
            f"{name} demo: {rep.status} point={_text(_pair_text, rep.point)} "
            f"member={_text(poly_text, rep.violated_member)} "
            f"value={_text(scalar_text, rep.violated_value)} examined={rep.candidates_examined} "
            f"samples={rep.samples_checked} failures={len(rep.sample_failures)}"
        )
    for name in AXIOMS:
        inst = build_axiom_instance(load_instance_file(fixture_path(name)))
        for degree, height in BOUNDS:
            lines.extend(_searches(f"{name} ({degree},{height})", inst, degree, height))
    inst = build_axiom_instance(parse_instance_text(OPEN_SET))
    pairs = doubled_samples(inst.system, 20, extra_nonzero=inst.open_extra)
    lines.extend(_samples("open-set", pairs))
    lines.extend(_searches("open-set (1,1)", inst, 1, 1))
    return lines


def test_grid_searches_match_pinned_digest():
    lines = _golden_lines()
    assert sum(" witness: " in line for line in lines) == len(AXIOMS) * len(BOUNDS) + 1
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST
