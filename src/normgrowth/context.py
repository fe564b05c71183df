"""Group construction from spec strings, with cached class and character data."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

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

PROFILE_QUICK = ("A:5", "S:5", "PSL2:7")
PROFILE_FULL = PROFILE_QUICK + ("PSL2:9", "PSL2:11", "PSL2:13", "PSL3:2", "PSL3:3")
PROFILES = {"quick": PROFILE_QUICK, "full": PROFILE_FULL}


def parse_group_spec(
    text: str, order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Build a group from "S:n", "A:n", "PSL2:q", "PSL3:q", or a generator file.

    A generator file holds one permutation per line in cycle notation,
    whitespace-separated cycles in parentheses.
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
            if builder in (build_psl2, build_psl3):
                return builder(arg, cap=order_cap)
            return builder(arg)
    if os.path.isfile(text):
        with open(text, encoding="utf-8") as fh:
            gens = generators_from_text(fh.read())
        label = os.path.splitext(os.path.basename(text))[0]
        return closure(gens, cap=order_cap, label=label)
    raise ParseError(f"unrecognized group spec {text!r}")


@dataclass(frozen=True)
class GroupContext:
    """A group bundled with its class data and certified character table."""

    group: FiniteGroup
    classes: ClassTable
    table: CharacterTable

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
    cache: bool = True,
) -> GroupContext:
    """Build (or fetch) the full context for a group spec string."""
    key = (spec, order_cap, seed)
    if cache and key in _CACHE:
        return _CACHE[key]
    group = parse_group_spec(spec, order_cap=order_cap)
    ct = compute_classes(group)
    tab = compute_character_table(group, ct, seed=seed)
    ctx = GroupContext(group=group, classes=ct, table=tab)
    if cache:
        _CACHE[key] = ctx
    return ctx

