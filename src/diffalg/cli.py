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
from .parser import ParseError, parse_poly, parse_tpoly, point_text, poly_text, scalar_text
from .poly import DiffPoly
from .prolong import d_compatibility_check, tau
from .ranking import ORDERLY, Ranking
from .reduction import (
    NotAutoreduced,
    autoreduced_check,
    coherence_check,
    full_reduce,
    partial_reduce,
)
from .ring import CONSTANTS, RATIONAL_T, RingContext, theta_text

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


def _given_bounds(**flags):
    """The bound flags given (not None), each checked by _bound; the rest keep their defaults."""
    return {name: _bound(name, v) for name, v in flags.items() if v is not None}


def _grid_bounds(args, bounds):
    """Witness-grid (degree, height); the file's [bounds] order is checked too."""
    _bound("order_bound", None, bounds.get("order"))
    return (_bound("degree", args.degree, bounds.get("degree")),
            _bound("height", args.height, bounds.get("height")))


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


def _ring_from(args):
    """The ring of --m, --n and --field; each unset flag takes its default
    (m = 1, n = 1, constants)."""
    return RingContext(
        m=1 if args.m is None else args.m,
        n=1 if args.n is None else args.n,
        field_mode=RATIONAL_T if args.field == RATIONAL_T else CONSTANTS,
    )


def _load(path):
    """load_instance_file; an unreadable file is an input error (exit 1)."""
    try:
        return load_instance_file(path)
    except OSError as exc:
        raise InstanceFormatError(str(exc)) from None


def _ranking_from(args, ring):
    try:
        return Ranking.parse(ORDERLY if args.ranking is None else args.ranking, ring.n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _system_polys(args):
    if args.system is None:
        given = [flag for flag in ("m", "n", "field", "ranking") if getattr(args, flag) is not None]
        if given:
            flags = ", ".join(f"--{flag}" for flag in given)
            raise _UsageError(
                f"{flags}: not allowed with --system-file, whose [ring] line sets them")
        data = _load(args.system_file)
        return data.lam, data.ring, data.ranking
    ring = _ring_from(args)
    polys = [parse_poly(chunk, ring) for chunk in args.system.split(";") if chunk.strip()]
    return polys, ring, _ranking_from(args, ring)


def _parse_vars(text, ring):
    out = []
    for chunk in text.replace(",", " ").split():
        p = parse_poly(chunk, ring)
        vs = p.variables()
        if len(vs) != 1 or p != DiffPoly.var(ring, *vs):
            raise _UsageError(f"{chunk!r} is not a single variable")
        (v,) = vs
        if v in out:
            raise _UsageError(f"{v.text()} is listed twice in {text!r}")
        out.append(v)
    return tuple(out)


def _parse_model(text, ring):
    assignment = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        lhs, eq, rhs = chunk.partition("=")
        lhs = lhs.strip()
        if not (eq and lhs.startswith("x") and lhs[1:].strip().isdecimal()):
            raise _UsageError(f"model assignments look like x1=t2, got {chunk!r}")
        j = int(lhs[1:])
        if j in assignment:
            raise _UsageError(f"x{j} is assigned twice in {text!r}")
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
    if args.check_point is not None:
        pt = _parse_model(args.check_point, ring)
        rep = d_compatibility_check(f, pt)
        lines.append(f"tau value at (point, D point): {scalar_text(rep.lhs)}")
        lines.append(f"D of value at point:           {scalar_text(rep.rhs)}")
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
        op = theta_text(theta) or "id"
        lines.append(f"cofactor[{op} applied to element {gi + 1}]: {poly_text(q)}")
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


def _algideal_from(args, ring, order=GREVLEX):
    variables = _parse_vars(args.vars, ring)
    gens = tuple(parse_poly(chunk, ring) for chunk in args.gens.split(";") if chunk.strip())
    return AlgIdeal(ring, variables, gens, order)


def _emit_polys(polys, args, **trailer):
    lines = [poly_text(g) for g in polys] or ["0"]
    return _emit(lines, {"status": "ok", "size": str(len(polys)), **trailer}, args, EXIT_OK)


def _cmd_groebner(args):
    ideal = buchberger(_algideal_from(args, _ring_from(args), args.order))
    return _emit_polys(ideal.basis, args, order=ideal.order)


def _cmd_member(args):
    ring = _ring_from(args)
    ideal = buchberger(_algideal_from(args, ring, args.order))
    f = parse_poly(args.expr, ring)
    cert = ideal_member(f, ideal)
    nf = poly_text(cert.normal_form)
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
    """PrimalityConfig from the flags given; the others keep its defaults."""
    opts = _given_bounds(factor_degree=getattr(args, "degree_bound", None),
                         factor_height=getattr(args, "height_bound", None))
    if args.seed is not None:
        opts["seed"] = args.seed
    return PrimalityConfig(**opts)


def _cmd_prime(args):
    ring = _ring_from(args)
    ideal = _algideal_from(args, ring, args.order)
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
    cert = charset_certify(data.lam, data.ranking, _primality_config(args))
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
    validation = instance_validate(inst, degree=degree, height=height,
                                   primality_config=_primality_config(args))
    if args.what == "validate":
        lines = [f"status: {validation.status}"]
        if validation.failed:
            lines.append(f"reason: {validation.failed}")
        if validation.o_point is not None:
            lines.append(f"open-set point: {point_text(validation.o_point)}")
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
        lines.append(f"witness: {point_text(report.witness)}")
        for c in report.checks:
            lines.append(f"check {c.label} -> {scalar_text(c.value)} ({'ok' if c.ok else 'FAIL'})")
        trailer = {"status": "found", "witness": point_text(report.witness),
                   "examined": str(report.examined)}
        return _emit(lines, trailer, args, EXIT_OK)
    # Rendered only if _emit prints it: --machine shows the trailer alone.
    lines = itertools.chain(
        lines, (f"candidate {point_text(pt)}: failed {why}" for pt, why in report.trail))
    trailer = {"status": report.status, "examined": str(report.examined),
               "degree": str(degree), "height": str(height)}
    return _emit(lines, trailer, args, EXIT_REJECTED)


def _cmd_demo(args):
    data = _load(args.file)
    if not data.naive:
        raise _UsageError("demo file needs a [naive] section")
    cert = charset_certify(data.lam, data.ranking, _primality_config(args))
    if cert.status == "rejected":
        return _emit([f"rejected: {cert.reason}"], {"status": "rejected", "reason": cert.reason},
                     args, EXIT_REJECTED)
    degree, height = _grid_bounds(args, data.bounds)
    report = naive_vs_tau_demo(
        data.naive, cert, degree=degree, height=height,
        **_given_bounds(members=args.members, samples=args.samples),
    )
    lines = [f"status: {report.status}"]
    if report.status == "found":
        pt, ypt = report.point
        lines.append(f"point: {point_text(pt)}; y-side {point_text(ypt, 'y')}")
        lines.append(f"violated member: {poly_text(report.violated_member)}")
        lines.append(f"prolonged value: {scalar_text(report.violated_value)}")
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
    # None marks a flag not given; _ring_from applies the defaults.
    sp.add_argument("--m", type=int, help="number of delta-derivations (default 1)")
    sp.add_argument("--n", type=int, help="number of x-indeterminates (default 1)")
    sp.add_argument("--field", choices=[CONSTANTS, RATIONAL_T],
                    help=f"coefficient field (default {CONSTANTS})")


def _add_system_opts(sp):
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--system", help='semicolon-separated, e.g. "d1 x1 - 1; d2 x1"')
    source.add_argument("--system-file", help="its [ring] line sets m, n, field and ranking")
    sp.add_argument("--ranking",
                    help="orderly (default) or elimination:i,j,...; not with --system-file")


def _add_common(sp, ring=True, seed=False):
    if ring:
        _add_ring_opts(sp)
    sp.add_argument("--machine", action="store_true", help="print only the trailer block")
    if seed:
        sp.add_argument("--seed", type=int, default=None,
                        help="seed of the primality oracle's zero-divisor probes")


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
        if name in ("groebner", "member", "prime"):
            sp.add_argument("--order", choices=[GREVLEX, LEX], default=GREVLEX)
        if name == "prime":
            sp.add_argument("--degree-bound", type=int, default=None)
            sp.add_argument("--height-bound", type=int, default=None)
        _add_common(sp, seed=name == "prime")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("certify", help="characteristic-set certification pipeline")
    sp.add_argument("file")
    _add_common(sp, ring=False, seed=True)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("axiom", help="axiom-instance checks")
    sp.add_argument("what", choices=["validate", "project", "witness"])
    sp.add_argument("file")
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--height", type=int, default=None)
    _add_common(sp, ring=False, seed=True)
    sp.set_defaults(fn=_cmd_axiom)

    sp = sub.add_parser("demo", help="comparison demos")
    sp.add_argument("which", choices=["naive-vs-tau"])
    sp.add_argument("file")
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--height", type=int, default=None)
    sp.add_argument("--members", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    _add_common(sp, ring=False, seed=True)
    sp.set_defaults(fn=_cmd_demo)

    return p


def _quiet_stdout():
    """Point a real stdout at the null device, so the exit-time flush cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # captured in process: nothing flushes it at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


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
