"""Acceptance gate: one test per numbered criterion.

Each test runs its criterion on the quick profile, prints a single
pass/fail line, and fails loudly with the offending records if any
check inside the criterion failed.
"""

import pytest

from normgrowth.acceptance import CRITERIA


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
    verdict = doc.verdict
    with capsys.disabled():
        print(
            f"criterion {number:02d} [{verdict}] {title}: "
            f"{doc.pass_count} pass, {doc.fail_count} fail, {doc.skip_count} skip"
        )
    assert doc.fail_count == 0, (
        f"criterion {number} ({title}) failed:\n{_failure_detail(doc)}"
    )
    assert doc.pass_count > 0
    # a record that held had room to spare, tolerance included
    negative = [r for r in doc.results if not r.skipped and r.margin < 0]
    assert not negative, f"criterion {number}: passing records with a negative margin"
