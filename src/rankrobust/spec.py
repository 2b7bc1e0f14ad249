"""The spec-string grammar shared by utilities and distortions.

A spec is `head`, `head:n1,n2,...`, or `head:x1,y1;x2,y2;...` for a knot
list.  An object built from a spec keeps the head as its ``kind`` and the
numbers, in spec order, as its ``params`` tuple (a knot list as a tuple of
pairs), so ``spec_text(kind, params)`` writes a spec that builds it again.
"""

from __future__ import annotations

from .errors import SpecStringError


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
