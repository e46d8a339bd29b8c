"""Line-oriented system and instance files.

    [ring] m=1 n=1 field=rational_t
    [lambda]
    d1 x1
    [open]
    x1 - 1
    [W]
    d1 x1
    d1 y1
    y1 - 1
    [bounds] order=2 degree=1 height=1

Sections [lambda], [open], [W] and [naive] hold one polynomial per line in
the shared grammar; [ring] and [bounds] carry key=value pairs on the header
line. Blank lines and lines starting with '#' are ignored. An optional
ranking key on the [ring] line selects "orderly" (default) or
"elimination:i,j,..." with a permutation of the variable indices. [ring]
takes only m, n, field and ranking; [bounds] only order, degree and height,
each an integer. Any other key, a repeated key, a non-integer value or a
second [ring] or [bounds] line is a format error naming the line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .axioms import AxiomInstance
from .parser import parse_poly
from .ranking import Ranking
from .reduction import autoreduced_check
from .ring import CONSTANTS, RingContext


class InstanceFormatError(ValueError):
    pass


@dataclass
class InstanceData:
    ring: RingContext
    ranking: Ranking
    lam: list = field(default_factory=list)
    open_extra: list = field(default_factory=list)
    w_gens: list = field(default_factory=list)
    naive: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)


_POLY_SECTIONS = {"lambda": "lam", "open": "open_extra", "w": "w_gens", "naive": "naive"}
_HEADER_KEYS = {"ring": ("m", "n", "field", "ranking"), "bounds": ("order", "degree", "height")}


def _parse_kv(rest, name, lineno):
    where = f"line {lineno}: [{name}]"
    allowed = _HEADER_KEYS[name]
    out = {}
    for chunk in rest.split():
        if "=" not in chunk:
            raise InstanceFormatError(f"{where} expects key=value, got {chunk!r}")
        k, v = chunk.split("=", 1)
        if k not in allowed:
            raise InstanceFormatError(
                f"{where} has unknown key {k!r} (allowed: {', '.join(allowed)})"
            )
        if k in out:
            raise InstanceFormatError(f"{where} repeats key {k!r}")
        out[k] = v
    return out


def _int_value(kv, key, name, lineno):
    try:
        return int(kv[key])
    except ValueError:
        raise InstanceFormatError(
            f"line {lineno}: [{name}] {key} must be an integer, got {kv[key]!r}"
        ) from None


def parse_instance_text(text):
    ring = None
    ranking = Ranking()
    sections = {name: [] for name in _POLY_SECTIONS}
    bounds = {}
    headers = {}  # header section name -> line it appears on
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise InstanceFormatError(f"line {lineno}: unterminated section header")
            name = line[1:end].strip().lower()
            rest = line[end + 1 :].strip()
            if name in _HEADER_KEYS:
                if name in headers:
                    raise InstanceFormatError(
                        f"line {lineno}: [{name}] already given on line {headers[name]}"
                    )
                headers[name] = lineno
            if name == "ring":
                kv = _parse_kv(rest, name, lineno)
                for k in ("m", "n"):
                    if k not in kv:
                        raise InstanceFormatError(f"line {lineno}: [ring] is missing {k!r}")
                m, n = (_int_value(kv, k, name, lineno) for k in ("m", "n"))
                try:
                    ring = RingContext(m, n, kv.get("field", CONSTANTS))
                except ValueError as exc:
                    raise InstanceFormatError(f"line {lineno}: {exc}") from None
                if "ranking" in kv:
                    try:
                        ranking = Ranking.parse(kv["ranking"], n)
                    except ValueError as exc:
                        raise InstanceFormatError(f"line {lineno}: {exc}") from None
                current = None
            elif name == "bounds":
                kv = _parse_kv(rest, name, lineno)
                bounds = {k: _int_value(kv, k, name, lineno) for k in kv}
                current = None
            elif name in _POLY_SECTIONS:
                current = name
            else:
                raise InstanceFormatError(f"line {lineno}: unknown section [{name}]")
            continue
        if current is None:
            raise InstanceFormatError(f"line {lineno}: polynomial outside any section")
        sections[current].append((lineno, line))
    if ring is None:
        raise InstanceFormatError("missing [ring] section")
    data = InstanceData(ring, ranking, bounds=bounds)
    for name, attr in _POLY_SECTIONS.items():
        for lineno, line in sections[name]:
            try:
                setattr(data, attr, getattr(data, attr) + [parse_poly(line, ring)])
            except ValueError as exc:
                raise InstanceFormatError(f"line {lineno}: {exc}") from None
    return data


def load_instance_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def build_axiom_instance(data):
    """Assemble the validated-input object; raises NotAutoreduced on bad systems."""
    if not data.lam:
        raise InstanceFormatError("instance has an empty [lambda] section")
    system = autoreduced_check(data.lam, data.ranking)
    order_bound = data.bounds.get("order", 2)
    return AxiomInstance(system, tuple(data.open_extra), tuple(data.w_gens), order_bound)


def fixture_path(name):
    """Path of a fixture shipped with the package."""
    return resources.files("diffalg") / "fixtures" / name
