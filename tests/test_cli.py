import json
import math
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from ergolab.cli import main
from ergolab.errors import ParameterError
from ergolab.experiments import MAX_FFT
from ergolab.gc_stats import BernoulliCoordinateFamily, FiniteFamily, RotationFamily, SubshiftWindowFamily
from ergolab.harness import (
    REGISTRY,
    RunContext,
    build_family,
    cached_sieve,
    format_cell,
    list_experiments,
    prepare_run,
    write_csv,
)

ALPHA = 0.4142135623730951


@pytest.fixture()
def sandbox(tmp_path, monkeypatch):
    monkeypatch.setenv("ERGOLAB_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def invoke(sandbox, name, config=None, seed=None, threads=None, tag="config"):
    argv = [name, "--out", str(sandbox / "results")]
    if config is not None:
        path = sandbox / f"{tag}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return CliRunner().invoke(main, argv)


def run_dir_of(result):
    return result.output.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# registry and listing


def test_list_contains_required_entries():
    result = CliRunner().invoke(main, ["list"])
    assert result.exit_code == 0
    assert "chowla" in result.output
    assert "davenport" in result.output
    assert len(result.output.strip().splitlines()) >= 12


def test_registry_matches_cli_surface():
    expected = {
        "sieve", "mertens", "bfree", "admissible", "veech", "orbit",
        "besicovitch", "probe-equicont", "gc-deviation", "covering",
        "shatter", "shatter-prob", "davenport", "chowla", "disjointness",
        "short-interval", "second-moment", "partition", "random-mertens", "zhan",
    }
    assert set(REGISTRY) == expected
    assert expected | {"list", "verify"} <= set(main.commands)


def test_descriptions_are_single_lines():
    for name, description in list_experiments():
        assert description and "\n" not in description


# ---------------------------------------------------------------------------
# the documented config flow


def test_mertens_config_produces_expected_csv(sandbox):
    result = invoke(sandbox, "mertens", {"experiment": "mertens", "limit": 10})
    assert result.exit_code == 0, result.output
    run_dir = run_dir_of(result)
    text = open(os.path.join(run_dir, "mertens.csv")).read()
    assert text.startswith("x,m\n")
    assert "\n10,-1\n" in text
    assert "\r" not in text


def test_manifest_written_and_complete(sandbox):
    result = invoke(sandbox, "mertens", {"limit": 10}, seed=3)
    run_dir = run_dir_of(result)
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["experiment"] == "mertens"
    assert manifest["parameters"]["limit"] == 10
    assert manifest["seed"] == 3
    assert manifest["limits"] == {"mobius": 10}
    assert manifest["version"]
    assert manifest["started"] <= manifest["finished"]
    for name in manifest["outputs"]:
        assert os.path.exists(os.path.join(run_dir, name))
    assert "mertens.csv" in manifest["outputs"]


def test_run_directory_layout(sandbox):
    result = invoke(sandbox, "mertens", {"limit": 10}, seed=11)
    run_dir = run_dir_of(result)
    rel = os.path.relpath(run_dir, sandbox / "results")
    assert re.fullmatch(r"mertens/\d{8}T\d{6}Z-11(-\d+)?", rel.replace(os.sep, "/"))


# ---------------------------------------------------------------------------
# config errors -> exit 2


def test_unknown_key_is_named(sandbox):
    result = invoke(sandbox, "covering", {"experiment": "covering", "epsilonn": 0.2})
    assert result.exit_code == 2
    record = json.loads(result.stderr)
    assert record["error"] == "config"
    assert "epsilonn" in record["message"]


def test_experiment_mismatch_rejected(sandbox):
    result = invoke(sandbox, "mertens", {"experiment": "sieve"})
    assert result.exit_code == 2
    assert "sieve" in json.loads(result.stderr)["message"]


def test_malformed_json_rejected(sandbox):
    path = sandbox / "bad.json"
    path.write_text("{not json")
    result = CliRunner().invoke(main, ["mertens", "--config", str(path), "--out", str(sandbox / "r")])
    assert result.exit_code == 2


def test_missing_config_file_rejected(sandbox):
    result = CliRunner().invoke(
        main, ["mertens", "--config", str(sandbox / "absent.json"), "--out", str(sandbox / "r")]
    )
    assert result.exit_code == 2


def test_missing_required_key_named(sandbox):
    result = invoke(sandbox, "admissible", {"members": [4, 9]})
    assert result.exit_code == 2
    assert "block" in json.loads(result.stderr)["message"]


def test_wrong_type_rejected(sandbox):
    result = invoke(sandbox, "mertens", {"limit": "ten"})
    assert result.exit_code == 2


def test_oversized_theta_grid_rejected_before_running(sandbox):
    config = {"x": 64, "thetas": MAX_FFT + 1}
    with pytest.raises(ParameterError, match="maximum"):
        prepare_run(REGISTRY["zhan"], config, None)
    prepare_run(REGISTRY["zhan"], {**config, "thetas": MAX_FFT}, None)
    result = invoke(sandbox, "zhan", config)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "config"
    assert not (sandbox / "results").exists()
    assert not (sandbox / "cache").exists()


@pytest.mark.parametrize(
    "name, config",
    [("covering", {"eps": math.nan}), ("covering", {"eps": math.inf}),
     ("shatter", {"alpha": math.nan}), ("shatter-prob", {"beta": math.nan}),
     ("davenport", {"a": math.nan}), ("second-moment", {"exponent": math.nan})],
)
def test_non_finite_threshold_rejected(sandbox, name, config):
    # json.load accepts NaN and Infinity, and the schema's "number" lets them through
    result = invoke(sandbox, name, config)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "config"
    assert not (sandbox / "results").exists()


def test_resource_bound_exit_code(sandbox):
    result = invoke(sandbox, "sieve", {"limit": 2**31})
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"] == "resource"


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(sandbox):
    config = {"grid": [64, 128], "tau": 0.5, "paths": 8}
    first = invoke(sandbox, "random-mertens", config, seed=7)
    second = invoke(sandbox, "random-mertens", config, seed=7, tag="config2")
    for name in ("sups.csv", "rms.csv"):
        a = open(os.path.join(run_dir_of(first), name), "rb").read()
        b = open(os.path.join(run_dir_of(second), name), "rb").read()
        assert a == b


def test_thread_count_does_not_change_bytes(sandbox):
    config = {"grid": [64, 128], "tau": 0.5, "paths": 8}
    one = invoke(sandbox, "random-mertens", config, seed=7, threads=1)
    four = invoke(sandbox, "random-mertens", config, seed=7, threads=4, tag="config2")
    a = open(os.path.join(run_dir_of(one), "sups.csv"), "rb").read()
    b = open(os.path.join(run_dir_of(four), "sups.csv"), "rb").read()
    assert a == b


def test_seed_changes_random_outputs(sandbox):
    config = {"grid": [64, 128], "tau": 0.5, "paths": 8}
    one = invoke(sandbox, "random-mertens", config, seed=1)
    two = invoke(sandbox, "random-mertens", config, seed=2, tag="config2")
    a = open(os.path.join(run_dir_of(one), "sups.csv"), "rb").read()
    b = open(os.path.join(run_dir_of(two), "sups.csv"), "rb").read()
    assert a != b


def test_cache_created_once_and_reused(sandbox):
    invoke(sandbox, "mertens", {"limit": 50})
    cache = sandbox / "cache"
    files = sorted(p.name for p in cache.iterdir())
    assert files == ["mobius-50.npy"]
    stamp = (cache / "mobius-50.npy").stat().st_mtime_ns
    invoke(sandbox, "mertens", {"limit": 50}, tag="config2")
    assert (cache / "mobius-50.npy").stat().st_mtime_ns == stamp


def test_cached_sieve_roundtrip(tmp_path):
    from ergolab.arith import sieve_liouville

    first = cached_sieve("liouville", 300, tmp_path)
    again = cached_sieve("liouville", 300, tmp_path)
    assert np.array_equal(first.values, sieve_liouville(300).values)
    assert np.array_equal(first.values, again.values)


# ---------------------------------------------------------------------------
# harness units


def test_format_cell_rules():
    assert format_cell(0.1) == "0.1"
    assert format_cell(np.float64(0.25)) == "0.25"
    assert format_cell(np.int64(-3)) == "-3"
    assert format_cell(True) == "true"
    assert format_cell(np.bool_(False)) == "false"
    assert format_cell(None) == ""
    assert format_cell("plain") == "plain"


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, None), (3, True)])
    assert path.read_bytes() == b"a,b\n1,0.5\n2,\n3,true\n"


def test_prepare_run_merges_defaults_and_seed():
    params, seed = prepare_run(REGISTRY["mertens"], {"limit": 12, "seed": 5}, None)
    assert params["limit"] == 12
    assert params["head"] == 10000
    assert seed == 5
    _, seed = prepare_run(REGISTRY["mertens"], {"seed": 5}, 9)
    assert seed == 9


def family_doc(family):
    """A family document as prepare_run leaves it: validated, defaults filled."""
    params, _ = prepare_run(REGISTRY["gc-deviation"], {"family": family}, None)
    return params["family"]


def test_build_family_variants(tmp_path):
    ctx = RunContext(cache=tmp_path)
    assert isinstance(build_family(family_doc({"type": "rotation", "alpha": ALPHA, "size": 4}), ctx), RotationFamily)
    assert isinstance(build_family(family_doc({"type": "bernoulli", "size": 8}), ctx), BernoulliCoordinateFamily)
    fam = build_family(family_doc({"type": "subshift", "kind": "mobius", "length": 64, "size": 4}), ctx)
    assert isinstance(fam, SubshiftWindowFamily)
    assert isinstance(build_family(family_doc({"type": "finite", "matrix": [[0, 1], [1, 0]]}), ctx), FiniteFamily)


def test_build_family_rejects_unknown():
    # build_family only sees documents prepare_run has checked and filled, so the
    # unknown type, the stray key and the missing type are refused there
    with pytest.raises(ParameterError, match="family"):
        family_doc({"type": "nope"})
    with pytest.raises(ParameterError, match="alpha"):
        family_doc({"type": "bernoulli", "alpha": 1})
    with pytest.raises(ParameterError, match="family"):
        family_doc({"size": 4})


def test_prepare_run_fills_sub_document_defaults():
    assert family_doc({"type": "bernoulli"}) == {"type": "bernoulli", "size": 1024, "p": 0.5}
    assert family_doc({"type": "subshift"}) == {
        "type": "subshift", "kind": "mobius", "length": 1 << 16, "size": 64
    }
    params, _ = prepare_run(REGISTRY["orbit"], {"system": {"variant": "skew-affine", "alpha": ALPHA}}, None)
    assert params["system"] == {
        "variant": "skew-affine", "alpha": ALPHA, "x0": 0.0, "y0": 0.0, "check": True
    }
    params, _ = prepare_run(REGISTRY["veech"], {}, None)
    assert params["spec"] == {"generator": "triangular", "sign_rule": "alternating", "mertens_limit": None}
    params, _ = prepare_run(REGISTRY["veech"], {"spec": {"starts": [1, 3, 6], "signs": [1, -1]}}, None)
    assert params["spec"] == {"starts": [1, 3, 6], "signs": [1, -1]}


MALFORMED = [
    # integer-valued floats, at the top level and inside sub-documents
    ("gc-deviation", {"reps": 2.0}, "reps"),
    ("sieve", {"head": 10.0}, "head"),
    ("sieve", {"limit": 100.0}, "limit"),
    ("zhan", {"thetas": 8.0}, "thetas"),
    ("covering", {"ns": [4.0]}, "ns.0"),
    ("gc-deviation", {"family": {"type": "bernoulli", "size": 2.0}}, "family.size"),
    ("veech", {"spec": {"generator": "triangular", "sign_rule": "mertens", "mertens_limit": 100.0}},
     "spec.mertens_limit"),
    ("orbit", {"system": {"variant": "bernoulli", "seed": 1.0}}, "system.seed"),
    # unknown family types, keys of another type, a missing type
    ("gc-deviation", {"family": {"type": "nope"}}, "family"),
    ("gc-deviation", {"family": {"type": "bernoulli", "alpha": 1}}, "alpha"),
    ("covering", {"family": {"size": 4}}, "family"),
    ("shatter", {"family": {"type": "finite"}}, "matrix"),
    # a ragged matrix passes the schema and is refused by the family itself
    ("gc-deviation", {"family": {"type": "finite", "matrix": [[1, 2], [3]]}}, "rectangular"),
    # systems: keys of another variant, a missing required key, wrong types
    ("orbit", {"system": {"variant": "rotation", "alpha": ALPHA, "y0": 0.5}}, "y0"),
    ("disjointness", {"system": {"variant": "skew-additive"}}, "x0"),
    ("probe-equicont", {"system": {"variant": "sturmian", "alpha": ALPHA, "check": 0}}, "system.check"),
    ("orbit", {"system": {"variant": "circle", "alpha": ALPHA}}, "system"),
    # mixed veech forms
    ("veech", {"spec": {"starts": [1, 3, 6], "signs": [1, -1], "generator": "triangular"}}, "spec"),
    ("veech", {"spec": {"starts": [1, 3, 6], "signs": [1, -1], "sign_rule": "plus"}}, "spec"),
    ("veech", {"spec": {"generator": "triangular", "signs": [1, -1]}}, "spec"),
    ("veech", {"spec": {"starts": [1, 3, 6]}}, "spec"),
]


@pytest.mark.parametrize("name, config, where", MALFORMED, ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_malformed_document_rejected_before_running(sandbox, name, config, where):
    result = invoke(sandbox, name, config)
    assert result.exit_code == 2, result.output
    record = json.loads(result.stderr)
    assert record["error"] == "config"
    assert where in record["message"]
    assert not (sandbox / "results").exists()


def test_manifest_records_sub_document_defaults(sandbox):
    result = invoke(sandbox, "gc-deviation", {"family": {"type": "bernoulli"}, "n": 16, "reps": 2})
    assert result.exit_code == 0, result.output
    manifest = json.load(open(os.path.join(run_dir_of(result), "manifest.json")))
    assert manifest["parameters"]["family"] == {"type": "bernoulli", "size": 1024, "p": 0.5}


@pytest.mark.parametrize(
    "name, config",
    [("gc-deviation", {"family": {"type": "bernoulli", "size": 64}, "n": 16, "reps": 4}),
     ("covering", {"family": {"type": "subshift", "length": 512}, "ns": [8], "sample_n": 16, "reps": 2}),
     ("probe-equicont", {"system": {"variant": "skew-affine", "alpha": ALPHA}, "n": 256, "pairs": 2}),
     ("orbit", {"system": {"variant": "sturmian", "alpha": ALPHA}, "n": 32}),
     ("veech", {"budget": 32, "w": 2})],
)
def test_manifest_parameters_reproduce_the_run(sandbox, name, config):
    first = run_dir_of(invoke(sandbox, name, config, seed=4))
    params = json.load(open(os.path.join(first, "manifest.json")))["parameters"]
    again = run_dir_of(invoke(sandbox, name, params, seed=4, tag="params"))
    assert again != first
    outputs = sorted(os.listdir(first))
    assert outputs == sorted(os.listdir(again))
    for output in outputs:
        if output != "manifest.json":
            assert open(os.path.join(first, output), "rb").read() == open(os.path.join(again, output), "rb").read()


# ---------------------------------------------------------------------------
# one smoke run per experiment

SMOKE_CONFIGS = {
    "sieve": {"limit": 100, "head": 20},
    "mertens": {"limit": 50, "head": 50},
    "bfree": {"members": [4, 9], "limit": 4096, "window": 50, "head": 20, "k": 1},
    "admissible": {"block": [1, 2], "members": [4, 9]},
    "veech": {"budget": 64, "w": 4},
    "orbit": {"n": 16},
    "besicovitch": {"limit": 4096},
    "probe-equicont": {"n": 512, "pairs": 4, "deltas": [0.25, 0.125]},
    "gc-deviation": {"family": {"type": "rotation", "size": 8, "alpha": ALPHA}, "n": 32, "reps": 4},
    "covering": {"family": {"type": "rotation", "size": 8, "alpha": ALPHA}, "ns": [16, 32], "sample_n": 32, "reps": 3},
    "shatter": {"family": {"type": "bernoulli", "size": 256}, "n": 4, "budget": 32},
    "shatter-prob": {"family": {"type": "bernoulli", "size": 256}, "n": 4, "reps": 8},
    "davenport": {"xs": [50, 100]},
    "chowla": {"kind": "liouville", "schedule": [256, 512]},
    "disjointness": {"n": 256},
    "short-interval": {"xs": [100], "tau": 0.6},
    "second-moment": {"xs": [100], "h": 4},
    "partition": {"rule": "squares", "top": 400},
    "random-mertens": {"grid": [32, 64], "paths": 4},
    "zhan": {"x": 64, "tau": 0.5, "thetas": 8},
}


def test_smoke_covers_whole_registry():
    assert set(SMOKE_CONFIGS) == set(REGISTRY)


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
def test_experiment_smoke(sandbox, name):
    result = invoke(sandbox, name, {"experiment": name, **SMOKE_CONFIGS[name]}, seed=1)
    assert result.exit_code == 0, result.output + str(result.stderr)
    run_dir = run_dir_of(result)
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["outputs"]
    for name_ in manifest["outputs"]:
        path = os.path.join(run_dir, name_)
        assert os.path.getsize(path) > 0


# ---------------------------------------------------------------------------
# verify command


def test_verify_quick_passes(sandbox, monkeypatch):
    monkeypatch.chdir(sandbox)
    result = CliRunner().invoke(main, ["verify", "quick"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    assert "FAIL" not in result.output


def test_verify_rejects_unknown_suite():
    result = CliRunner().invoke(main, ["verify", "everything"])
    assert result.exit_code != 0
