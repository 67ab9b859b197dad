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

from ergolab import acceptance, arith, harness
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

# The exact rows criteria 1-11 print.
_DETAILS = {
    1: "0 mismatches vs trial division on 20000 points, 0 divisor-sum failures below 10000",
    2: "0 increment mismatches up to 1000000; M(10)=-1",
    3: "mobius: 0 lag mismatches, liouville: 0 lag mismatches",
    4: "D=0.0117/0.0060/0.0031/0.0015/0.0008, strict decrease=True, end/start=0.067",
    5: "theta0 exact at 3/3 points; ratios 2.7224/1.1989/0.5489 non-increasing(1.2x)=True",
    6: (
        "sups 0.03666/0.03557/0.01230/0.00333 non-increasing(1.2x)=True; "
        "moments 0.1023/0.0612/0.0405 decreasing=True"
    ),
    7: (
        "square-partition ratio 0.0616->0.0186 (drop 69.7%); "
        "unit-partition sum 6082 vs squarefree count 6082"
    ),
    8: "max RMS 0.2285 (cap 2.414); 99.2% of paths below 0.05 at x=2^20 (need 95%)",
    9: "3 persistent windows: +++++++++++++++++, -----------------, 00000000000000000",
    10: (
        "rotation e_64/e_1024=16.2 (need >=4); bernoulli min e_n=0.692 (need >=0.347); "
        "bernoulli root=1.000 (need >=0.9); rotation shattered n=2 16/64 root 0.500, "
        "n=4 0/64 root 0.000, n=6 0/64 root 0.000 (need 0 at n>=3, since translates realize "
        "<=2n of 2^n dichotomies; root at n=2 >0; every root <1.000) ok=True"
    ),
    11: "gap 0.166667 vs 1/6 (|diff|=3.33e-07, bound ok=True); 0 mu^2 mismatches up to 1000000",
}


@pytest.mark.parametrize("cid", FULL, ids=[f"{c:02d}-{_IDS[c]}" for c in FULL])
def test_criterion(cid):
    result = _CRITERIA[cid]()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.cid:>2}  {result.name}: {result.detail} [{result.elapsed:.2f}s]")
    assert result.passed, f"criterion {cid} ({result.name}): {result.detail}"
    if cid in _DETAILS:
        assert result.detail == _DETAILS[cid]
    else:
        assert result.detail == ", ".join(f"{label} identical" for label in acceptance.RUNS)


def test_corrupting_one_sieve_value_is_caught(monkeypatch):
    cached_sieve = harness.cached_sieve

    def corrupted(kind, limit, cache):
        table = cached_sieve(kind, limit, cache)
        if kind == "mobius":
            table[5] = 0  # overwrite the entry for n=6
        return table

    monkeypatch.setattr(harness, "cached_sieve", corrupted)
    result = criterion_1()
    assert not result.passed
    assert "0 divisor-sum failures" not in result.detail
    assert result.detail == "1 mismatches vs trial division on 20000 points, 1666 divisor-sum failures below 10000"


def test_quick_suite_sieves_each_table_once(monkeypatch):
    sieved = []

    def counted(name, sieve):
        def wrapper(limit, *args):
            sieved.append(name)
            return sieve(limit, *args)

        return wrapper

    for module in (arith, harness, acceptance):
        for name in ("sieve_mobius", "sieve_liouville"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for value in vars(acceptance).values():  # start from an empty suite cache
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    assert all(r.passed for r in run_suite("quick"))
    assert sorted(sieved) == ["sieve_liouville", "sieve_mobius"]


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
