"""Per-layer spans around diffalg's public functions, installed from outside.

diffalg binds names with ``from .x import y``, so a function lives in the
namespace of every module that imports it. ``install`` replaces each binding
of a wrapped function, in every loaded ``diffalg`` module, with one wrapper,
and ``uninstall`` puts the originals back. Nothing under ``src/`` changes.

A span records calls and self time: its duration minus the time covered by
the spans it caused. Hot dunders get count-only wrappers that read no clock;
their time stays in the caller's self time. The ``model_points`` generator
is timed per ``next()``, so the consumer's work between items is excluded.
Spans accumulate into ``Tracer.bucket``; the benchmark swaps buckets per
pass. Work done by the hooks that derive counters is subtracted from the
enclosing span, like a child span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("scalars", "poly", "reduction", "algebra", "prolong", "model", "axioms", "parser", "cli")

# Module-level helpers called once per monomial product: counted, not timed.
COUNT_ONLY = {"poly.mono_from", "poly.mono_mul", "poly.mono_degree", "poly.mono_drop"}

# (layer.Class.method span name, module, class, attribute, timed)
METHODS = (
    ("scalars.Scalar.mul", "scalars", "Scalar", "__mul__", False),
    ("poly.DiffPoly.mul", "poly", "DiffPoly", "__mul__", True),
    ("poly.DiffPoly.derive", "poly", "DiffPoly", "derive", True),
    ("reduction.verify", "reduction", "ReductionCertificate", "verify", True),
)

# Per-layer metrics the traced run prints: (name, unit, better). Counts and
# self times are for one pass plus set-up (input generation and parsing).
PER_LAYER = (
    ("scalars.tpoly_gcd.calls", "count", "lower"),
    ("scalars.tpoly_gcd.self_ms", "ms", "lower"),
    ("scalars.Scalar.mul.calls", "count", "lower"),
    ("poly.DiffPoly.mul.calls", "count", "lower"),
    ("poly.DiffPoly.mul.self_ms", "ms", "lower"),
    ("poly.DiffPoly.derive.calls", "count", "lower"),
    ("poly.DiffPoly.derive.self_ms", "ms", "lower"),
    ("reduction.full_reduce.calls", "count", "lower"),
    ("reduction.full_reduce.self_ms", "ms", "lower"),
    ("reduction.steps", "count", "lower"),
    ("reduction.coherence_check.self_ms", "ms", "lower"),
    ("reduction.verify.self_ms", "ms", "lower"),
    ("algebra.buchberger.calls", "count", "lower"),
    ("algebra.buchberger.self_ms", "ms", "lower"),
    ("algebra.basis_size", "count", "lower"),
    ("algebra.basis_coeff_bits.max", "bits", "lower"),
    ("algebra.ideal_member.self_ms", "ms", "lower"),
    ("algebra.macaulay_member.self_ms", "ms", "lower"),
    ("algebra.eliminate.self_ms", "ms", "lower"),
    ("algebra.saturate.self_ms", "ms", "lower"),
    ("algebra.primality_oracle.calls", "count", "lower"),
    ("algebra.primality_oracle.self_ms", "ms", "lower"),
    ("algebra.primality.decided_share", "share", "higher"),
    ("prolong.tau.calls", "count", "lower"),
    ("prolong.tau.self_ms", "ms", "lower"),
    ("model.eval_poly.calls", "count", "lower"),
    ("model.eval_poly.self_ms", "ms", "lower"),
    ("model.eval_poly.nonzero_share", "share", "lower"),
    ("model.model_points.yielded", "count", "lower"),
    ("model.model_points.self_ms", "ms", "lower"),
    ("axioms.candidates_examined", "count", "lower"),
    ("axioms.witness_search.self_ms", "ms", "lower"),
    ("axioms.naive_vs_tau_demo.self_ms", "ms", "lower"),
    ("axioms.doubled_samples.self_ms", "ms", "lower"),
    ("axioms.instance_validate.self_ms", "ms", "lower"),
    ("axioms.charset_certify.self_ms", "ms", "lower"),
    ("parser.parse_poly.calls", "count", "lower"),
    ("parser.parse_poly.self_ms", "ms", "lower"),
    ("parser.poly_text.calls", "count", "lower"),
    ("parser.poly_text.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_jobs_per_s", "1/s", "higher"),
)


def _coeff_bits(ideal):
    bits = 0
    for g in ideal.basis:
        for c in g.terms.values():
            for q in c.num.terms.values():
                bits = max(bits, q.numerator.bit_length())
    return bits


def _add(key, amount):
    def hook(out, counters):
        counters[key] = counters.get(key, 0) + amount(out)
    return hook


def _basis_hook(ideal, counters):
    counters["algebra.basis_size"] = counters.get("algebra.basis_size", 0) + len(ideal.basis)
    counters["algebra.basis_coeff_bits.max"] = max(
        counters.get("algebra.basis_coeff_bits.max", 0), _coeff_bits(ideal))


# Counters derived from return values, keyed by span name.
HOOKS = {
    "reduction.full_reduce": _add("reduction.steps", lambda cert: cert.steps),
    "algebra.buchberger": _basis_hook,
    "algebra.primality_oracle": _add("algebra.primality.decided", lambda v: v.status != "unknown"),
    "model.eval_poly": _add("model.eval_poly.nonzero", lambda value: not value.is_zero()),
    "axioms.witness_search": _add("axioms.candidates_examined", lambda rep: rep.examined),
}


class Bucket:
    """Spans and counters of one phase (set-up or one pass)."""

    def __init__(self):
        self.spans = {}  # name -> [calls, self seconds]
        self.counters = {}

    def rec(self, name):
        r = self.spans.get(name)
        if r is None:
            r = self.spans[name] = [0, 0.0]
        return r


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [start, seconds covered by children]
        self.bucket = Bucket()
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn):
        stack = self.stack
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                r = tracer.bucket.rec(name)
                r[0] += 1
                r[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                t0 = perf_counter()
                hook(out, tracer.bucket.counters)
                if stack:
                    stack[-1][1] += perf_counter() - t0
            return out

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.bucket.rec(name)[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        stack = self.stack
        tracer = self
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            tracer.bucket.rec(name)[0] += 1
            while True:
                frame = [perf_counter(), 0.0]
                stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - frame[0]
                    stack.pop()
                    tracer.bucket.rec(name)[1] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                c = tracer.bucket.counters
                c[yielded] = c.get(yielded, 0) + 1
                yield item

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function of each layer at every binding, plus METHODS."""
        if self._patches:
            raise RuntimeError("spans already installed")
        mods = [importlib.import_module(f"diffalg.{layer}") for layer in LAYERS]
        bindings = [m for n, m in sys.modules.items() if n == "diffalg" or n.startswith("diffalg.")]
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # re-exported; wrapped under its own layer
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self._counted(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self._generator(name, fn)
                else:
                    wrapper = self._timed(name, fn)
                for m in bindings:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._patches.append((m, key, fn))
                            setattr(m, key, wrapper)
        for name, layer, cls_name, attr, timed in METHODS:
            cls = getattr(importlib.import_module(f"diffalg.{layer}"), cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._timed(name, fn) if timed else self._counted(name, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches = []


def layer_metrics(setup, passes):
    """PER_LAYER values (without the overhead) from the set-up bucket and the
    traced passes: counts from one pass (every pass runs the same jobs),
    self times as the best pass, each plus the set-up share."""
    def span(bucket, name):
        return bucket.spans.get(name, [0, 0.0])

    def count(name):
        if name.endswith(".calls"):
            base = name[: -len(".calls")]
            return span(setup, base)[0] + span(passes[0], base)[0]
        return setup.counters.get(name, 0) + passes[0].counters.get(name, 0)

    def share(num, den):
        d = count(den)
        return count(num) / d if d else 0.0

    out = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            base = name[: -len(".self_ms")]
            sec = span(setup, base)[1] + min(span(p, base)[1] for p in passes)
            value = 1e3 * sec
        elif name == "algebra.basis_coeff_bits.max":
            value = max(setup.counters.get(name, 0), passes[0].counters.get(name, 0))
        elif name == "algebra.primality.decided_share":
            value = share("algebra.primality.decided", "algebra.primality_oracle.calls")
        elif name == "model.eval_poly.nonzero_share":
            value = share("model.eval_poly.nonzero", "model.eval_poly.calls")
        elif name == "trace.overhead_jobs_per_s":
            continue
        else:
            value = count(name)
        out[name] = {"value": value, "unit": unit}
    return out


def span_table(bucket):
    """Every span of a bucket as {name: {"calls": n, "self_ms": t}}, for the trace file."""
    return {
        name: {"calls": calls, "self_ms": 1e3 * sec}
        for name, (calls, sec) in sorted(bucket.spans.items())
    }
