"""Single executable exposing every operation over the shared grammar.

Exit codes: 0 success/found/certified, 2 rejected/exhausted/not-member,
1 usage error, 3 internal error (a certificate failed its re-verification).
A reader that closes the output pipe early (``| head``) ends the run quietly
with exit 0.
Every report re-verifies its own certificates before printing and ends with a
machine-readable trailer block.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from .algebra import (
    GREVLEX,
    LEX,
    AlgIdeal,
    PrimalityConfig,
    buchberger,
    eliminate,
    ideal_member,
    primality_oracle,
    saturate,
)
from .axioms import (
    charset_certify,
    instance_validate,
    naive_vs_tau_demo,
    projection_closure_check,
    witness_search,
)
from .instances import (
    InstanceFormatError,
    build_axiom_instance,
    load_instance_file,
)
from .model import ModelPoint
from .parser import ParseError, parse_poly, parse_tpoly, poly_text, scalar_text
from .prolong import d_compatibility_check, tau
from .ranking import ORDERLY, Ranking
from .reduction import (
    NotAutoreduced,
    autoreduced_check,
    coherence_check,
    full_reduce,
    partial_reduce,
)
from .ring import CONSTANTS, RATIONAL_T, RingContext
from .scalars import Scalar, TPoly, tpoly_gcd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _bound(name, flag, from_file=None):
    """A search bound: the flag if given, else the [bounds] entry, else 1.

    A given value below 1, from either source, is a usage error.
    """
    given = [v for v in (flag, from_file) if v is not None]
    if any(v < 1 for v in given):
        raise _UsageError(f"{name} must be positive")
    return given[0] if given else 1


def _grid_bounds(args, bounds):
    """Witness-grid (degree, height); the file's [bounds] order is checked too."""
    _bound("order_bound", None, bounds.get("order"))
    return (_bound("degree", args.degree, bounds.get("degree")),
            _bound("height", args.height, bounds.get("height")))


def _tpoly_text(p):
    return scalar_text(Scalar._poly(p))


def _scalar_out(s):
    if s.is_poly():
        return scalar_text(s)
    return f"({_tpoly_text(s.num)}) / ({_tpoly_text(s.den)})"


def _poly_out(f):
    """poly_text, or (numerator) / (denominator) over the least common
    t-denominator when a coefficient has a non-constant one."""
    den = TPoly.one(f.ring.nt)
    for c in f.terms.values():
        den = den * c.den.exact_div(tpoly_gcd(den, c.den))
    if den.is_const():
        return poly_text(f)
    den = den.scale(1 / den.lead_coeff())
    num = f.scale(Scalar._poly(den))
    num_text = scalar_text(num.scalar_value()) if num.is_scalar() else poly_text(num)
    return f"({num_text}) / ({_tpoly_text(den)})"


def _pair_lines(pairs, system):
    """One line per cross-derivative pair, each certificate re-verified first."""
    lines = []
    for ev in pairs:
        if not ev.certificate.verify(system):
            raise RuntimeError("coherence reduction certificate failed re-verification")
        lines.append(
            f"pair (elements {ev.hi + 1}, {ev.lo + 1}): remainder {poly_text(ev.remainder)}"
        )
    return lines


def _point_text(pt):
    return ", ".join(f"x{j} := {_tpoly_text(p)}" for j, p in sorted(pt.assignment.items()))


def _ring_from(args):
    mode = RATIONAL_T if args.field == "rational_t" else CONSTANTS
    return RingContext(m=args.m, n=args.n, field_mode=mode)


def _load(path):
    """load_instance_file; an unreadable file is an input error (exit 1)."""
    try:
        return load_instance_file(path)
    except OSError as exc:
        raise InstanceFormatError(str(exc)) from None


def _ranking_from(args):
    try:
        ranking = Ranking.parse(args.ranking)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if ranking.permutation and len(ranking.permutation) != args.n:
        raise _UsageError(f"elimination ranking must permute 1..{args.n}")
    return ranking


def _system_polys(args):
    ring = _ring_from(args)
    if args.system_file:
        data = _load(args.system_file)
        return data.lam, data.ring, data.ranking
    if not args.system:
        raise _UsageError("provide --system or --system-file")
    polys = [parse_poly(chunk, ring) for chunk in args.system.split(";") if chunk.strip()]
    return polys, ring, _ranking_from(args)


def _parse_vars(text, ring):
    out = []
    for chunk in text.replace(",", " ").split():
        p = parse_poly(chunk, ring)
        vs = p.variables()
        if len(vs) != 1 or len(p.terms) != 1:
            raise _UsageError(f"{chunk!r} is not a single variable")
        out.append(next(iter(vs)))
    return tuple(out)


def _parse_model(text, ring):
    assignment = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        lhs, _, rhs = chunk.partition("=")
        lhs = lhs.strip()
        if not lhs.startswith("x"):
            raise _UsageError(f"model assignments look like x1=t2, got {chunk!r}")
        j = int(lhs[1:])
        assignment[j] = parse_tpoly(rhs.strip(), ring)
    return ModelPoint(ring, assignment)


def _emit(lines, trailer, args, code):
    trailer = dict(trailer)
    trailer["exit"] = str(code)
    if getattr(args, "seed", None) is not None:
        trailer["seed"] = str(args.seed)
    if not getattr(args, "machine", False):
        for line in lines:
            print(line)
    print("---")
    for k, v in trailer.items():
        print(f"{k}: {v}")
    return code


def _cmd_tau(args):
    ring = _ring_from(args)
    f = parse_poly(args.expr, ring)
    t = tau(f)
    lines = [poly_text(t.value)]
    trailer = {"status": "ok", "tau": poly_text(t.value)}
    code = EXIT_OK
    if args.check_point:
        pt = _parse_model(args.check_point, ring)
        rep = d_compatibility_check(f, pt)
        lines.append(f"tau value at (point, D point): {_scalar_out(rep.lhs)}")
        lines.append(f"D of value at point:           {_scalar_out(rep.rhs)}")
        lines.append(f"chain rule: {'ok' if rep.ok else 'VIOLATED'}")
        trailer["chain_rule"] = "ok" if rep.ok else "violated"
        code = EXIT_OK if rep.ok else EXIT_REJECTED
    return _emit(lines, trailer, args, code)


def _cmd_reduce(args):
    polys, ring, ranking = _system_polys(args)
    f = parse_poly(args.expr, ring)
    system = autoreduced_check(polys, ranking)
    cert = partial_reduce(f, system) if args.mode == "partial" else full_reduce(f, system)
    if not cert.verify(system):
        raise RuntimeError("reduction certificate failed re-verification")
    lines = [
        f"mode: {cert.mode}",
        f"remainder: {poly_text(cert.remainder)}",
        f"premultiplier: {poly_text(cert.premultiplier)}",
        f"steps: {cert.steps}",
    ]
    for (gi, theta), q in sorted(cert.cofactors.items()):
        ds = "".join(f"d{j + 1}" * k for j, k in enumerate(theta)) or "id"
        lines.append(f"cofactor[{ds} applied to element {gi + 1}]: {poly_text(q)}")
    if args.check:
        lines.append("certificate identity: verified by re-expansion")
    trailer = {
        "status": "ok",
        "remainder": poly_text(cert.remainder),
        "premultiplier": poly_text(cert.premultiplier),
        "steps": str(cert.steps),
        "verified": "true",
    }
    return _emit(lines, trailer, args, EXIT_OK)


def _cmd_coherent(args):
    polys, _, ranking = _system_polys(args)
    system = autoreduced_check(polys, ranking)
    rep = coherence_check(system)
    lines = _pair_lines(rep.pairs, system)
    lines.append("coherent" if rep.coherent else "incoherent")
    trailer = {"status": "coherent" if rep.coherent else "incoherent",
               "pairs": str(len(rep.pairs))}
    return _emit(lines, trailer, args, EXIT_OK if rep.coherent else EXIT_REJECTED)


def _cmd_hprod(args):
    polys, _, ranking = _system_polys(args)
    system = autoreduced_check(polys, ranking)
    h = "1" if system.h is None else poly_text(system.h)  # None: the empty product
    return _emit([h], {"status": "ok", "h": h}, args, EXIT_OK)


def _algideal_from(args, ring):
    variables = _parse_vars(args.vars, ring)
    gens = tuple(parse_poly(chunk, ring) for chunk in args.gens.split(";") if chunk.strip())
    order = LEX if args.order == "lex" else GREVLEX
    return AlgIdeal(ring, variables, gens, order)


def _emit_polys(polys, args, **trailer):
    lines = [poly_text(g) for g in polys] or ["0"]
    return _emit(lines, {"status": "ok", "size": str(len(polys)), **trailer}, args, EXIT_OK)


def _cmd_groebner(args):
    ideal = buchberger(_algideal_from(args, _ring_from(args)))
    return _emit_polys(ideal.basis, args, order=ideal.order)


def _cmd_member(args):
    ring = _ring_from(args)
    ideal = buchberger(_algideal_from(args, ring))
    f = parse_poly(args.expr, ring)
    cert = ideal_member(f, ideal)
    nf = _poly_out(cert.normal_form)
    lines = [f"member: {'yes' if cert.member else 'no'}", f"normal form: {nf}"]
    trailer = {"status": "member" if cert.member else "not-member", "normal_form": nf}
    return _emit(lines, trailer, args, EXIT_OK if cert.member else EXIT_REJECTED)


def _cmd_eliminate(args):
    ring = _ring_from(args)
    out = eliminate(_algideal_from(args, ring), set(_parse_vars(args.drop, ring)))
    return _emit_polys(out.generators, args)


def _cmd_saturate(args):
    ring = _ring_from(args)
    out = saturate(_algideal_from(args, ring), parse_poly(args.by, ring))
    return _emit_polys(out.generators, args)


def _primality_config(args):
    return PrimalityConfig(
        factor_degree=_bound("factor_degree", args.degree_bound),
        factor_height=_bound("factor_height", args.height_bound),
        seed=args.seed or 0,
        assert_prime=args.assert_prime,
    )


def _cmd_prime(args):
    ring = _ring_from(args)
    ideal = _algideal_from(args, ring)
    verdict = primality_oracle(ideal, _primality_config(args))
    lines = [f"status: {verdict.status}", f"method: {verdict.method}"]
    if verdict.witness:
        a, b = verdict.witness
        lines.append(f"witness: ({poly_text(a)}) * ({poly_text(b)})")
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    trailer = {"status": verdict.status, "method": verdict.method}
    return _emit(lines, trailer, args, EXIT_OK if verdict.status == "prime" else EXIT_REJECTED)


def _cmd_certify(args):
    data = _load(args.file)
    config = PrimalityConfig(seed=args.seed or 0)
    cert = charset_certify(data.lam, data.ranking, config)
    lines = [f"status: {cert.status}", f"stage: {cert.stage}", f"reason: {cert.reason}"]
    if cert.coherence is not None:
        lines += _pair_lines(cert.coherence.pairs, cert.system)
    if cert.primality is not None:
        lines.append(f"primality: {cert.primality.status} ({cert.primality.method})")
        if cert.primality.witness:
            a, b = cert.primality.witness
            lines.append(f"zero-divisor witness: ({poly_text(a)}) * ({poly_text(b)})")
    trailer = {"status": cert.status, "stage": cert.stage}
    code = EXIT_REJECTED if cert.status == "rejected" else EXIT_OK
    return _emit(lines, trailer, args, code)


def _cmd_axiom(args):
    data = _load(args.file)
    inst = build_axiom_instance(data)
    degree, height = _grid_bounds(args, data.bounds)
    validation = instance_validate(inst, degree=degree, height=height)
    if args.what == "validate":
        lines = [f"status: {validation.status}"]
        if validation.failed:
            lines.append(f"reason: {validation.failed}")
        if validation.o_point is not None:
            lines.append(f"open-set point: {_point_text(validation.o_point)}")
        trailer = {"status": validation.status, "order_bound": str(validation.order_bound)}
        code = EXIT_OK if validation.status == "valid" else EXIT_REJECTED
        return _emit(lines, trailer, args, code)
    if validation.status != "valid":
        return _emit(
            [f"rejected: {validation.failed}"],
            {"status": "rejected", "reason": str(validation.failed)},
            args, EXIT_REJECTED,
        )
    if args.what == "project":
        verdict = projection_closure_check(inst, validation)
        lines = [f"surrogate order bound: {verdict.order_bound}"]
        for g, rem in verdict.residuals:
            lines.append(f"eliminant {poly_text(g)}: remainder {poly_text(rem)}")
        lines.append("projection covers the open set" if verdict.ok
                     else "projection misses the open set")
        trailer = {"status": "ok" if verdict.ok else "rejected",
                   "order_bound": str(verdict.order_bound)}
        return _emit(lines, trailer, args, EXIT_OK if verdict.ok else EXIT_REJECTED)
    report = witness_search(inst, validation, degree=degree, height=height)
    lines = [f"status: {report.status}", f"candidates examined: {report.examined}"]
    if report.status == "found":
        lines.append(f"witness: {_point_text(report.witness)}")
        for c in report.checks:
            lines.append(f"check {c.label} -> {_scalar_out(c.value)} ({'ok' if c.ok else 'FAIL'})")
        trailer = {"status": "found", "witness": _point_text(report.witness),
                   "examined": str(report.examined)}
        return _emit(lines, trailer, args, EXIT_OK)
    # Rendered only if _emit prints it: --machine shows the trailer alone.
    lines = itertools.chain(
        lines, (f"candidate {_point_text(pt)}: failed {why}" for pt, why in report.trail))
    trailer = {"status": report.status, "examined": str(report.examined),
               "degree": str(degree), "height": str(height)}
    return _emit(lines, trailer, args, EXIT_REJECTED)


def _cmd_demo(args):
    data = _load(args.file)
    if not data.naive:
        raise _UsageError("demo file needs a [naive] section")
    config = PrimalityConfig(seed=args.seed or 0)
    cert = charset_certify(data.lam, data.ranking, config)
    if cert.status == "rejected":
        return _emit([f"rejected: {cert.reason}"], {"status": "rejected"}, args, EXIT_REJECTED)
    degree, height = _grid_bounds(args, data.bounds)
    report = naive_vs_tau_demo(
        data.naive, cert, degree=degree, height=height,
        members=_bound("members", args.members), samples=_bound("samples", args.samples),
    )
    lines = [f"status: {report.status}"]
    if report.status == "found":
        pt, ypt = report.point
        lines.append(f"point: {_point_text(pt)}; y-side {_point_text(ypt).replace('x', 'y')}")
        lines.append(f"violated member: {poly_text(report.violated_member)}")
        lines.append(f"prolonged value: {_scalar_out(report.violated_value)}")
    lines.append(f"open-set samples checked: {report.samples_checked}, "
                 f"violations: {len(report.sample_failures)}")
    trailer = {
        "status": report.status,
        "samples": str(report.samples_checked),
        "sample_violations": str(len(report.sample_failures)),
    }
    code = EXIT_OK if report.status == "found" else EXIT_REJECTED
    return _emit(lines, trailer, args, code)


def _add_ring_opts(sp):
    sp.add_argument("--m", type=int, default=1, help="number of delta-derivations")
    sp.add_argument("--n", type=int, default=1, help="number of x-indeterminates")
    sp.add_argument("--field", choices=[CONSTANTS, RATIONAL_T], default=CONSTANTS)


def _add_system_opts(sp):
    sp.add_argument("--system", default=None, help='semicolon-separated, e.g. "d1 x1 - 1; d2 x1"')
    sp.add_argument("--system-file", default=None)
    sp.add_argument("--ranking", default=ORDERLY,
                    help="orderly (default) or elimination:i,j,...; ignored with --system-file")


def _add_common(sp, ring=True):
    if ring:
        _add_ring_opts(sp)
    sp.add_argument("--machine", action="store_true", help="print only the trailer block")
    sp.add_argument("--seed", type=int, default=None)


@functools.cache
def build_parser():
    """The argparse tree, built once per process; parse_args never changes it."""
    p = _Parser(prog="diffalg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tau", help="prolong a polynomial")
    sp.add_argument("expr")
    sp.add_argument("--check-point", default=None, help='model point, e.g. "x1=t2; x2=1"')
    _add_common(sp)
    sp.set_defaults(fn=_cmd_tau)

    sp = sub.add_parser("reduce", help="Ritt-reduce against an autoreduced system")
    sp.add_argument("expr")
    _add_system_opts(sp)
    sp.add_argument("--mode", choices=["full", "partial"], default="full")
    sp.add_argument("--check", action="store_true",
                    help="print the certificate re-verification line")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("coherent", help="check all cross-derivative pairs")
    _add_system_opts(sp)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_coherent)

    sp = sub.add_parser("hprod", help="product of initials and separants")
    _add_system_opts(sp)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_hprod)

    for name, fn, extra in [
        ("groebner", _cmd_groebner, ()),
        ("member", _cmd_member, ("expr",)),
        ("eliminate", _cmd_eliminate, ("--drop",)),
        ("saturate", _cmd_saturate, ("--by",)),
        ("prime", _cmd_prime, ()),
    ]:
        sp = sub.add_parser(name, help=f"{name} over frozen derivative variables")
        for arg in extra:
            if arg.startswith("--"):
                sp.add_argument(arg, required=True)
            else:
                sp.add_argument(arg)
        sp.add_argument("gens", help="semicolon-separated generators")
        sp.add_argument("--vars", required=True, help='e.g. "x1, d1x1, y1"')
        sp.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
        if name == "prime":
            sp.add_argument("--degree-bound", type=int, default=2)
            sp.add_argument("--height-bound", type=int, default=2)
            sp.add_argument("--assert-prime", action="store_true")
        _add_common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("certify", help="characteristic-set certification pipeline")
    sp.add_argument("file")
    _add_common(sp, ring=False)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("axiom", help="axiom-instance checks")
    sp.add_argument("what", choices=["validate", "project", "witness"])
    sp.add_argument("file")
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--height", type=int, default=None)
    _add_common(sp, ring=False)
    sp.set_defaults(fn=_cmd_axiom)

    sp = sub.add_parser("demo", help="comparison demos")
    sp.add_argument("which", choices=["naive-vs-tau"])
    sp.add_argument("file")
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--height", type=int, default=None)
    sp.add_argument("--members", type=int, default=10)
    sp.add_argument("--samples", type=int, default=50)
    _add_common(sp, ring=False)
    sp.set_defaults(fn=_cmd_demo)

    return p


def _quiet_stdout():
    """Point a real stdout at the null device, so the exit-time flush cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # captured in process: nothing flushes it at exit
    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotAutoreduced as exc:
        return _emit([f"rejected: {exc}"], {"status": "rejected", "reason": str(exc)},
                     args, EXIT_REJECTED)
    except (ParseError, InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped reading (``| head``): end quietly
        _quiet_stdout()
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
