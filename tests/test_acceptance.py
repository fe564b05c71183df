"""Acceptance gate: one test per numbered criterion.

Each test runs its criterion on the quick profile, prints a single
pass/fail line, and fails loudly with the offending records if any
check inside the criterion failed.
"""

import hashlib
import json

import pytest

from normgrowth import acceptance
from normgrowth.acceptance import CRITERIA

# sha256 of the seed-0 report bodies of the criteria counted by
# `spectral.convolve_rows`, as the record-by-record `mul` path gave them
KERNEL_BODIES = {
    3: "56bf79683f74b983fdeeb12562bc492c1afd34908365bf1179dc7801297becfc",
    11: "2c8d5749564e126aeca685d23fd9303f24bd87e67963f6bf167c7e6d583b884a",
    13: "f1d46a74cc866562e00c2a341e55582847d16a80c1ec14dbefad8a9d35253d12",
}


def _failure_detail(doc):
    lines = [r for r in doc.results if not r.passed and not r.skipped]
    return "\n".join(
        f"{r.check} {r.group} {r.inputs} lhs={r.lhs!r} rhs={r.rhs!r}"
        for r in lines[:20]
    )


@pytest.mark.parametrize(
    "number,title,func",
    CRITERIA,
    ids=[f"criterion_{num:02d}" for num, _, _ in CRITERIA],
)
def test_criterion(number, title, func, capsys):
    doc = func(profile="quick", seed=0)
    tally = doc.tally()
    with capsys.disabled():
        print(
            f"criterion {number:02d} [{tally.verdict}] {title}: "
            f"{tally.passed} pass, {tally.failed} fail, {tally.skipped} skip"
        )
    assert tally.failed == 0, (
        f"criterion {number} ({title}) failed:\n{_failure_detail(doc)}"
    )
    assert tally.passed > 0
    # a record that held had room to spare, tolerance included
    negative = [r for r in doc.results if not r.skipped and r.margin < 0]
    assert not negative, f"criterion {number}: passing records with a negative margin"


@pytest.mark.parametrize("number", sorted(KERNEL_BODIES))
def test_kernel_criteria_bodies_are_pinned(number):
    func = {num: f for num, _, f in CRITERIA}[number]
    body = json.dumps(func(profile="quick", seed=0).body_dict(), sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == KERNEL_BODIES[number]


def test_mixing_criterion_draws_its_pairs_once_per_group(monkeypatch):
    """Criterion 13 tries every class on the same seeded pairs, drawn once per group."""
    calls = []
    inner = acceptance.random_subset
    monkeypatch.setattr(acceptance, "random_subset", lambda *a, **k: calls.append(1) or inner(*a, **k))
    doc = acceptance.criterion_13(profile="quick", seed=0, pairs=5)
    assert len(calls) == 2 * 5 * len(acceptance.MIXING_GROUPS)
    assert len(doc.results) == 5 * sum(
        acceptance.get_context(spec).classes.n_classes for spec in acceptance.MIXING_GROUPS
    )
