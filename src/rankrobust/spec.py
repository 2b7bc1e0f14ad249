"""The spec-string grammar shared by utilities and distortions.

A spec is `head`, `head:n1,n2,...`, or `head:x1,y1;x2,y2;...` for a knot
list.  An object built from a spec keeps the head as its ``kind`` and the
numbers, in spec order, as its ``params`` tuple (a knot list as a tuple of
pairs), so ``spec_text(kind, params)`` writes a spec that builds it again.

``loaded_orjson`` gives the reports' float writer and ``parse_prior``'s
weight reader orjson, and only once a scenario read has imported it.
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import SpecStringError


@functools.cache
def _agrees(orjson) -> bool:
    """Whether orjson writes as ``float.__repr__`` does the probes in the
    band 1e-4 <= |x| < 1e16 (or x = 0) and reads every probe's repr back to
    the same double.  The probes are the zeros and, with both signs, 10^k
    for k = -5 ... 16 and both of its neighbours: the band's edges among
    them."""
    probes = [0.0, -0.0, *(s * x for s in (1.0, -1.0) for k in range(-5, 17)
                           for x in (math.nextafter(10.0**k, 0.0), 10.0**k, math.nextafter(10.0**k, math.inf)))]
    band = [x for x in probes if x == 0.0 or 1e-4 <= abs(x) < 1e16]
    read = orjson.loads("[" + ",".join(map(float.__repr__, probes)) + "]")
    return (orjson.dumps(band).decode() == "[" + ",".join(map(float.__repr__, band)) + "]"
            and list(map(float.hex, read)) == list(map(float.hex, probes)))


def loaded_orjson():
    """orjson if it is already imported (this never imports it) and agrees
    with ``float.__repr__`` and ``float()`` on the probes; else None."""
    orjson = sys.modules.get("orjson")
    return orjson if orjson is not None and _agrees(orjson) else None


def float_list(text: str) -> list[float]:
    """``[float(x) for x in text.split(",")]``.  With ``loaded_orjson``, one
    ``orjson.loads`` call reads the text as a JSON array, kept when every
    value it reads is a float; anything else (orjson reads ``-0`` as the
    int 0, and refuses ``1_0``, ``+1``, ``.5``, ``nan`` and ``1e999``) is
    read by ``float()`` token by token, which raises ValueError on a bad
    token."""
    orjson = loaded_orjson()
    if orjson is not None:
        try:
            values = orjson.loads("[" + text + "]")
        except orjson.JSONDecodeError:
            values = None
        if values and set(map(type, values)) == {float}:
            return values
    return [float(x) for x in text.split(",")]


def spec_text(kind: str, params: tuple) -> str:
    """`kind`, `kind:n1,n2,...`, or `kind:x1,y1;x2,y2;...` when params are knots."""
    groups = params if params and isinstance(params[0], tuple) else (params,)
    body = ";".join(",".join(f"{x:g}" for x in group) for group in groups)
    return f"{kind}:{body}" if body else kind


def parse_spec(spec: str, family: str, builders: dict):
    """Build what a spec names from ``builders``, a ``{head: (builder, counts)}``
    table.  The builder takes the spec's numbers as arguments, and counts
    holds the numbers of arguments it accepts; counts is None for a builder
    that takes one knot list.  Every failure is a SpecStringError naming
    the spec."""
    head, _, rest = spec.strip().partition(":")
    entry = builders.get(head.lower())
    if entry is None:
        raise SpecStringError(f"unknown {family} kind in spec {spec!r}")
    build, counts = entry
    try:
        if counts is None:
            knots = [tuple(float(x) for x in pair.split(",")) for pair in rest.split(";") if pair]
            if any(len(knot) != 2 for knot in knots):
                raise SpecStringError(f"bad {family} spec {spec!r}: each knot is two numbers x,y")
            return build(knots)
        nums = [float(x) for x in rest.split(",")] if rest else []
        if len(nums) not in counts:
            raise SpecStringError(
                f"bad {family} spec {spec!r}: {head} takes {' or '.join(map(str, counts))} "
                f"number(s), got {len(nums)}"
            )
        return build(*nums)
    except SpecStringError:
        raise
    except ValueError as exc:  # bad numbers, and the builders' DomainErrors
        raise SpecStringError(f"bad {family} spec {spec!r}: {exc}") from exc
