"""The claim-rule verdict of tools/bench_pairs.py on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # q3 - q1 = 0.045
SPLIT = [1.0] * 5 + [2.0] * 5  # q3 - q1 = 1, two thirds of the median


@pytest.mark.parametrize("parent, change, expected", [
    (PARENT, [p - 0.2 for p in PARENT], "gain"),
    # nine lower and a tie still claim; eight lower and two ties do not
    (PARENT, [p - 0.2 for p in PARENT[:9]] + PARENT[9:], "gain"),
    (PARENT, [p - 0.2 for p in PARENT[:8]] + PARENT[8:], "flat"),
    # lower in every pair, but by less than the parent's spread
    (PARENT, [p - 0.01 for p in PARENT], "flat"),
    (PARENT, PARENT, "flat"),
    (PARENT, [p * 1.3 for p in PARENT], "worse"),
    (PARENT, [p * 1.2 for p in PARENT], "flat"),
    (SPLIT, SPLIT, "unresolved"),
    (SPLIT, [0.8 * p for p in SPLIT], "unresolved"),
    # every change run below every parent run resolves a wide parent
    (SPLIT, [0.9] * 10, "flat"),
    (SPLIT, [0.1] * 10, "gain"),
])
def test_verdict_follows_the_claim_rule(parent, change, expected):
    assert bench_pairs.verdict(parent, change, 0.25) == expected
