"""Runs every verification criterion at its stated tolerance.

Each parametrized case prints one pass/fail line and asserts the criterion
held.  Criterion 10's rotation shattering sub-check is the exact bound: a
family of translates of one continuous unimodal circle function realizes at
most 2n of the 2^n dichotomies on n points (the shifts putting some point in
the gap form 2n arcs, and each of the <= 2n pieces left realizes one
dichotomy), so the shattered count at n=4 and n=6 must be exactly zero while
the n=2 root stays positive.  README.md carries the full argument.
"""

import pytest

from ergolab import acceptance
from ergolab.acceptance import _CRITERIA, FULL, QUICK, criterion_1, criterion_12, run_suite
from ergolab.errors import ParameterError
from ergolab.harness import REGISTRY, CsvTable, Experiment

_IDS = {
    1: "sieve-exactness",
    2: "mertens-consistency",
    3: "correlation-fft-vs-direct",
    4: "chowla-average-decay",
    5: "davenport-peak",
    6: "short-interval-trend",
    7: "partition-variation",
    8: "random-walk-mertens",
    9: "step-function-window-closure",
    10: "entropy-shattering-contrast",
    11: "bfree-approximation",
    12: "thread-determinism",
}


@pytest.mark.parametrize("cid", FULL, ids=[f"{c:02d}-{_IDS[c]}" for c in FULL])
def test_criterion(cid):
    result = _CRITERIA[cid](threads=1)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.cid:>2}  {result.name}: {result.detail} [{result.elapsed:.2f}s]")
    assert result.passed, f"criterion {cid} ({result.name}): {result.detail}"


def test_corrupting_one_sieve_value_is_caught():
    def corrupt(values):
        values[5] = 0  # overwrite the entry for n=6

    result = criterion_1(corrupt=corrupt)
    assert not result.passed
    assert "0 divisor-sum failures" not in result.detail


def test_thread_dependent_output_is_caught(monkeypatch):
    def runner(p, ctx):
        return [CsvTable("out.csv", ("threads",), [(ctx.threads,)])]

    probe = Experiment("threads-probe", "writes its own thread count", {}, runner)
    monkeypatch.setitem(REGISTRY, probe.name, probe)
    monkeypatch.setattr(acceptance, "RUNS", {"threads-probe": (probe.name, {})})
    result = criterion_12()
    assert not result.passed
    assert result.detail == "threads-probe DIFFERS"


def test_suite_compositions():
    assert set(QUICK) < set(FULL)
    assert list(FULL) == list(range(1, 13))
    quick = run_suite("quick")
    assert [r.cid for r in quick] == list(QUICK)
    assert all(r.passed for r in quick)


def test_unknown_suite_rejected():
    with pytest.raises(ParameterError, match="suite"):
        run_suite("everything")
