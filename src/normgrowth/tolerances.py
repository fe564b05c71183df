"""Numeric tolerances used across the checks, as one frozen value.

`Tolerances` holds every named tolerance and `DEFAULT` the set in effect
unless a command overrides some.  The CLI builds one value per command with
`with_overrides`; each `GroupContext` carries the value its table was
certified under, and every check reads its tolerances from `ctx.tol`.  No
module state changes, so nothing has to be restored after a command.  A
tolerance's CLI name is its field name with "-" for "_".
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError


@dataclass(frozen=True)
class Tolerances:
    # certification target for freshly computed character tables
    orthogonality: float = 1e-8
    # acceptance threshold when re-certifying an imported table
    table_accept: float = 1e-6
    # each degree must sit within this distance of a positive integer
    degree_integrality: float = 1e-6
    # eigenvalues closer than this trigger a retry with fresh coefficients
    eigen_collision: float = 1e-6

    # agreement between the character route and the dense eigensolve
    lambda_agree: float = 1e-6
    # the trivial character must give eigenvalue 1 within this
    lambda_one: float = 1e-10
    # weighted-walk lambda vs. plain lambda for class-indicator weights
    wlambda_agree: float = 1e-8

    # generic slack for inequality checks
    slack: float = 1e-9
    # slack for the strict deviation bound
    strict_slack: float = 1e-12
    # relative agreement between the exact and character-formula pair counts
    pab_relative: float = 1e-8
    # distribution weights must sum to one within this
    dist_unit: float = 1e-12

    # Lanczos above the dense cap stops once the top Ritz residual is at most
    # this times the top Ritz value
    lanczos_tol: float = 1e-10

    def by_name(self) -> dict[str, float]:
        """Every tolerance under its CLI name, in field order."""
        return {f.name.replace("_", "-"): getattr(self, f.name) for f in dataclasses.fields(self)}

    def with_overrides(self, pairs: Iterable[str]) -> tuple[Tolerances, dict[str, float]]:
        """This value with each NAME=VALUE of `pairs` applied, and the overrides.

        An unknown name or a value that is not a finite float raises ParseError.
        """
        known = self.by_name()
        applied = {}
        for item in pairs:
            name, sep, value = item.partition("=")
            if not sep:
                raise ParseError(f"--tolerance wants NAME=VALUE, got {item!r}")
            name = name.strip()
            if name not in known:
                raise ParseError(f"unknown tolerance {name!r}")
            try:
                applied[name] = float(value)
            except ValueError:
                raise ParseError(f"bad tolerance value {value!r}") from None
            # nan fails every comparison and inf passes every bound
            if not math.isfinite(applied[name]):
                raise ParseError(f"tolerance {name!r} must be finite, got {value!r}")
        changes = {name.replace("-", "_"): value for name, value in applied.items()}
        return dataclasses.replace(self, **changes), applied


DEFAULT = Tolerances()

# perfbench/workloads.py reads this name; it goes once the benchmark reads
# the tolerance from its context
LAMBDA_AGREE = DEFAULT.lambda_agree
