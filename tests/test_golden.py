"""Golden canonical-JSON reports: the CLI's output bytes, locked per config.

Each file ``tests/golden/<case>.json`` is the report ``hankellift`` writes
for the config of that case.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py``, and only in a change that
means to alter the report output.
"""

import sys
from pathlib import Path

import pytest

from hankellift import cli
from hankellift.suite import CriterionResult

GOLDEN = Path(__file__).parent / "golden"
SYMBOL_Z = str(GOLDEN / "symbol-z.json")  # the symbol z: [[1, 1.0, 0.0]]

# the suite command runs on these fixed results, not on the real battery
FIXED_SUITE = [
    CriterionResult(index=1, name="x", passed=True, details="held", seconds=0.0),
    CriterionResult(index=2, name="y", passed=False, details="missed", seconds=0.0),
]

# case -> (argv, expected exit code)
CASES = {
    "gcd-conjugate-pair": (["--command", "gcd", "--zeros", "0,0.5;0,-0.5"], 0),
    "intertwine-conjugate-pair": (["--command", "intertwine", "--zeros", "0,0.5;0,-0.5"], 0),
    "intertwine-single-zero": (["--command", "intertwine", "--zeros", "0,0.5"], 0),
    "lift-check-conjugate-pair": (["--command", "lift-check", "--zeros", "0,0.5;0,-0.5"], 0),
    "lift-check-single-zero": (["--command", "lift-check", "--zeros", "0,0.5"], 0),
    "invariance-hilbert": (
        ["--command", "invariance", "--zeros", "0,0;0,0", "--generator", "hilbert"],
        0,
    ),
    "invariance-symbol-file": (
        ["--command", "invariance", "--zeros", "0,0;0,0", "--symbol-coeffs", SYMBOL_Z],
        0,
    ),
    "reduce-symbol-file": (
        ["--command", "reduce", "--zeros", "0,0;0,0", "--symbol-coeffs", SYMBOL_Z],
        0,
    ),
    "kernel-real-zero": (["--command", "kernel", "--zeros", "0.5,0"], 0),
    "toeplitz-fixed-real-zero": (["--command", "toeplitz-fixed", "--zeros", "0.5,0"], 0),
    "toeplitz-fixed-refusal": (
        ["--command", "toeplitz-fixed", "--zeros", "0.5,0", "--rank-tol", "0.075"],
        3,
    ),
    "hilbert-128": (["--command", "hilbert", "--order", "128"], 0),
    "suite-fixed-results": (["--command", "suite"], 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, tmp_path, monkeypatch):
    argv, code = CASES[case]
    monkeypatch.setattr(cli, "run_suite", lambda: FIXED_SUITE)
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()


if __name__ == "__main__":
    cli.run_suite = lambda: FIXED_SUITE
    for case, (argv, code) in sorted(CASES.items()):
        got = cli.main(argv + ["--out", str(GOLDEN / f"{case}.json")])
        if got != code:
            sys.exit(f"{case}: exit code {got}, expected {code}")
