"""Acceptance battery: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines; the same battery backs the ``hankellift --command suite``
CLI entry point.
"""

import pytest

from hankellift import suite
from hankellift.suite import CRITERIA, run_criterion


@pytest.mark.parametrize("index,name", [(idx, name) for idx, name, _ in CRITERIA])
def test_criterion(index, name):
    result = run_criterion(index)
    print(result.line())
    assert result.passed, result.line()


def test_structural_identities_fail_on_a_hankel_factor_of_a(monkeypatch):
    # Widom's Hankel factors are H(conj(z) a) and H(conj(z) b~); built from a
    # and b~ themselves, the identity must fail
    monkeypatch.setattr(suite, "_times_conj_z", lambda phi: phi)
    passed, details = suite.criterion_structural_identities()
    assert not passed, details
