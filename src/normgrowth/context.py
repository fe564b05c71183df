"""Group construction from spec strings, with cached class and character data.

A `GroupContext` bundles a group with its class table, its character table
and the `Tolerances` that table was certified under; every check reads its
tolerances from the context it is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .chartable import CharacterTable, compute_character_table
from .errors import ParseError
from .permgroup import (
    ClassTable,
    FiniteGroup,
    DEFAULT_ORDER_CAP,
    build_alternating,
    build_symmetric,
    closure,
    compute_classes,
    generators_from_text,
)
from .psl import build_psl2, build_psl3
from .tolerances import DEFAULT, Tolerances

PROFILE_QUICK = ("A:5", "S:5", "PSL2:7")
PROFILE_FULL = PROFILE_QUICK + ("PSL2:9", "PSL2:11", "PSL2:13", "PSL3:2", "PSL3:3")
PROFILES = {"quick": PROFILE_QUICK, "full": PROFILE_FULL}


def parse_group_spec(
    text: str, order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Build a group from "S:n", "A:n", "PSL2:q", "PSL3:q", or a generator file.

    A generator file holds one permutation per line in cycle notation,
    whitespace-separated cycles in parentheses.  Every spec raises
    CapExceeded for a group of order above `order_cap`.
    """
    head, sep, tail = text.partition(":")
    if sep:
        builders = {
            "S": build_symmetric,
            "A": build_alternating,
            "PSL2": build_psl2,
            "PSL3": build_psl3,
        }
        builder = builders.get(head.strip())
        if builder is not None:
            try:
                arg = int(tail)
            except ValueError:
                raise ParseError(f"bad group parameter in {text!r}") from None
            return builder(arg, cap=order_cap)
    if os.path.isfile(text):
        with open(text, encoding="utf-8") as fh:
            gens = generators_from_text(fh.read())
        label = os.path.splitext(os.path.basename(text))[0]
        return closure(gens, cap=order_cap, label=label)
    raise ParseError(f"unrecognized group spec {text!r}")


@dataclass(frozen=True)
class GroupContext:
    """A group bundled with its class data, certified character table and tolerances."""

    group: FiniteGroup
    classes: ClassTable
    table: CharacterTable
    tol: Tolerances

    @property
    def label(self) -> str:
        return self.group.label

    @property
    def n(self) -> int:
        return self.group.n


_CACHE: dict[tuple, GroupContext] = {}


def get_context(
    spec: str,
    order_cap: int = DEFAULT_ORDER_CAP,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> GroupContext:
    """Build (or fetch) the full context for a group spec string.

    The cache key holds the tolerances, which compare by value, so a table
    certified under one set is never served under another.
    """
    key = (spec, order_cap, seed, tol)
    if key in _CACHE:
        return _CACHE[key]
    group = parse_group_spec(spec, order_cap=order_cap)
    ct = compute_classes(group)
    tab = compute_character_table(group, ct, tol, seed=seed)
    ctx = GroupContext(group=group, classes=ct, table=tab, tol=tol)
    _CACHE[key] = ctx
    return ctx

