import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ergolab.arith import sieve_mobius
from ergolab.cli import main
from ergolab.errors import ParameterError, ResourceLimitError
from ergolab.experiments import MAX_FFT
from ergolab.gc_stats import BernoulliCoordinateFamily, FiniteFamily, RotationFamily, SubshiftWindowFamily
from ergolab import acceptance, arith, averaging, cli, dynsys, experiments, gc_stats, harness
from ergolab.harness import (
    _FLOAT_BLOCK,
    _ROW_BLOCK,
    REGISTRY,
    CacheEntry,
    RunContext,
    build_family,
    cached_sieve,
    format_cell,
    list_experiments,
    prepare_run,
    write_csv,
)

from helpers import ref_liouville, ref_mobius, ref_sieve_segments, ref_write_csv, walk_of

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


# kernel parameters whose only default is the registry schema's
SCHEMA_OWNED = [
    (dynsys.veech_window_closure, "budget"),
    *[(f, name) for f in (dynsys.rotation_orbit, dynsys.sturmian_word) for name in ("x0", "check")],
    *[(dynsys.skew_orbit, name) for name in ("x0", "y0", "check")],
    *[(dynsys.bernoulli_stream, name) for name in ("p", "seed")],
    (averaging.besicovitch_seminorm, "r"),
    (averaging.besicovitch_distance, "r"),
    *[(averaging.mean_equicontinuity_probe, name) for name in ("deltas", "pairs", "n", "r")],
    (gc_stats.empirical_sup_deviation, "reps"),
    (gc_stats.entropy_rate, "eps"),
    (gc_stats.entropy_rate, "norm"),
    (gc_stats.covering_number, "norm"),
    (gc_stats.shattering_probability, "reps"),
    (gc_stats.BernoulliCoordinateFamily, "p"),
    (gc_stats.RotationFamily, "check"),
    (experiments.davenport_sum, "a"),
    (experiments.davenport_sum, "refine"),
    (experiments.zhan_sup, "thetas"),
    (experiments.random_mertens_sim, "p"),
]


@pytest.mark.parametrize("kernel, name", SCHEMA_OWNED, ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_kernel_parameters_take_the_schema_default(kernel, name):
    assert inspect.signature(kernel).parameters[name].default is inspect.Parameter.empty


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


@pytest.mark.parametrize("unreadable", ["not-utf8", "directory"])
def test_unreadable_config_rejected(sandbox, unreadable):
    path = sandbox / "bad.json"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    result = CliRunner().invoke(main, ["mertens", "--config", str(path), "--out", str(sandbox / "r")])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "config"


def test_out_beneath_a_file_still_exits_3(sandbox):
    (sandbox / "file").write_text("")
    result = CliRunner().invoke(main, ["mertens", "--out", str(sandbox / "file" / "r")])
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"] == "io"


def test_file_not_found_inside_a_run_exits_3(sandbox, monkeypatch):
    # load_config turns every OSError into a config error, so one raised by
    # the run itself is an I/O failure
    def missing(*args):
        raise FileNotFoundError("gone mid-run")

    monkeypatch.setattr(cli, "run_experiment", missing)
    result = CliRunner().invoke(main, ["mertens", "--out", str(sandbox / "r")])
    assert result.exit_code == 3
    assert json.loads(result.stderr) == {"error": "io", "exit": 3, "message": "gone mid-run"}


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
    prepare_run(REGISTRY["davenport"], {"xs": [MAX_FFT // 4]}, None)  # the largest x whose transform fits
    result = invoke(sandbox, "zhan", config)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "config"
    assert not (sandbox / "results").exists()
    assert not (sandbox / "cache").exists()


def test_chowla_schedule_past_the_transform_cap_rejected_before_sieving(sandbox):
    # N = MAX_FFT / 2 transforms at exactly MAX_FFT; one more doubles the pad
    config = {"schedule": [4096, MAX_FFT // 2 + 1]}
    with pytest.raises(ParameterError, match="maximum"):
        prepare_run(REGISTRY["chowla"], config, None)
    prepare_run(REGISTRY["chowla"], {"schedule": [4096, MAX_FFT // 2]}, None)
    result = invoke(sandbox, "chowla", config)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "config"
    assert not (sandbox / "results").exists()
    assert not (sandbox / "cache").exists()


@pytest.mark.parametrize(
    "name, config, forms",
    [("covering", {"family": {"type": "torus"}}, "type=rotation, type=bernoulli, type=subshift, type=finite"),
     ("covering", {"family": {"size": 8}}, "type=rotation, type=bernoulli, type=subshift, type=finite"),
     ("orbit", {"system": {"variant": "nope"}},
      "variant=rotation, variant=skew-additive, variant=skew-affine, variant=sturmian, variant=bernoulli"),
     ("veech", {"spec": {"generator": "triangular", "starts": [1]}}, "starts+signs, generator")],
)
def test_sub_document_error_names_the_allowed_forms(sandbox, name, config, forms):
    result = invoke(sandbox, name, config)
    assert result.exit_code == 2
    record = json.loads(result.stderr)
    assert record["error"] == "config"
    assert f"(expected one of: {forms})" in record["message"]
    assert not (sandbox / "results").exists()


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


@pytest.mark.parametrize(
    "name, config",
    [("second-moment", {"h": 0}), ("second-moment", {"exponent": -1}),
     ("probe-equicont", {"deltas": []})],
)
def test_empty_statistic_rejected(sandbox, name, config):
    # h = 0, given or as int(10000 ** -1), is an empty interval; no delta is no probe
    result = invoke(sandbox, name, config)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "config"
    assert not (sandbox / "results").exists()


def test_probe_defaults_pin_the_deltas():
    params, _ = prepare_run(REGISTRY["probe-equicont"], None, None)
    assert params["deltas"] == [2.0**-j for j in range(1, 11)]


def test_unknown_veech_spec_key_is_named(sandbox):
    # the explicit form's errors rank last, since the spec carries none of its keys
    result = invoke(sandbox, "veech", {"spec": {"generator": "triangular", "sign_rule": "plus", "mertens_limit": 5}})
    assert result.exit_code == 2
    assert json.loads(result.stderr)["message"] == (
        "invalid config: spec: Additional properties are not allowed ('mertens_limit' was unexpected)"
    )


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


# sha256 of every output but manifest.json of the default-config runs whose
# values are exact integers or ratios (admissible with block [1, 2], its one
# required key), of veech's mertens rule at two sizes, and of the seeded
# Monte-Carlo and orbit runs at seed 0; a refactor must leave these bytes as
# they are
MERTENS_SPEC = {"spec": {"generator": "triangular", "sign_rule": "mertens"}}
PINNED_CONFIGS = {
    "admissible": ("admissible", {"block": [1, 2]}),
    "veech mertens": ("veech", MERTENS_SPEC),
    "veech mertens w3 b64": ("veech", {**MERTENS_SPEC, "w": 3, "budget": 64}),
}
PINNED_OUTPUTS = {
    "admissible": {
        "checks.csv": "b17fb176229e51adcca8407c56a952cc6c092074a91214040ef0c23c2d46a3f0",
        "result.csv": "9e01322d61c0d24e921c377dd613d1879f584c62d7ecb661f2b8ceaf2f7b6730",
    },
    "bfree": {
        "density.csv": "1b1c8d4352c644eae708eb96bcbe1bbf4674c29a71a01c270e72d0457f318196",
        "gap-summary.csv": "860cb553f2a845db77ad9889e41937f30d989dacae54c7ee09f7321734fed816",
        "gap.csv": "0d2dc113f53485280032b7ca66ca353e45855ca4949594818ceba2bd73a20f19",
        "indicator.csv": "335ce3e85c4d28d639b4ee3dbc05ce97221a29433290e58a7522eb2cedac4efd",
    },
    "davenport": {
        "davenport.csv": "c877e9d7cdda2489673068438ae8d12a5eb6dd9b0ef08c1af9c8228eeb877d51",
    },
    "covering": {
        "bounds.csv": "6578c2117e497c664de26d129c1132a7b61ac60f793f0f213453851bd4817346",
        "entropy.csv": "2143db13e4aa507c4119f1b06f102e2a0911264f65c850e6087ca4affb00866d",
    },
    "gc-deviation": {
        "deviations.csv": "5ac39bcb85da733593b9308be58c4c02717bf0546f785d483342f36714275145",
        "summary.csv": "099ffb0c822b20f56fa02f4dedb1d0568ecc2a3bf2356cf4cda11983822c273b",
    },
    "mertens": {
        "mertens.csv": "57a70a7426f4bff11b52d167de38356a486888da0acba594d11e8058283b731d",
    },
    "orbit": {
        "orbit.csv": "9c9220f9784d43a6f3d57068adb55afdb1715ed0ff5740e1a486c4e2d3944133",
    },
    "partition": {
        "steps.csv": "d1c1f0b30c0765850866b0b8cf499a78c645bc008581b24c723ccd5870fa82f7",
        "summary.csv": "f9150350a146ced76fda7122d9c50d684e0c9aa5ff7b488e172e510f50f1dbba",
    },
    "probe-equicont": {
        "probe.csv": "e1b4146e78023e8bdaf94374cfd40d03d4c559c6d943dfe257196fbb0e3d6c9a",
    },
    "random-mertens": {
        "rms.csv": "710ed00f190d26ce107b5bbda8d2e8adf10a41ca5eea5d4d4edd4ad55149e5d2",
        "sups.csv": "25cb59771269b6259a6384e29a2078ba79bb94be0668fa12d1d507279e48f7a6",
    },
    "second-moment": {
        "moments.csv": "b073e6fd648b20e4333b67691db277b36332e30f2985c9ffa04b8318979b8c56",
    },
    "shatter": {
        "result.csv": "b2654e9612f4dd11b2d97b218959c85305965f51ecc57920545ffa016501827e",
        "witnesses.csv": "d96b9ef16e97d863e460a3386857b3954a053a19a787758fbb46bf38d7ac6e01",
    },
    "shatter-prob": {
        "result.csv": "f96b55aee7b7a08b5d7709bfe3e1535fdbe367bdab1aa724b2fccd032ea95ccd",
    },
    "short-interval": {
        "intervals.csv": "145409a4fdf4eec62fa7bfaf4eae44a68b148abde51b3ad74fc03ac30733fd68",
    },
    "sieve": {
        "table.bin": "f878698950400abbb3b294ae9f141301898f5c033ed7bc1816341f0e20b57994",
        "table.csv": "ab1ddfd6600b0b452cf9017395f35a4bd0bedb9f9c5a1ab07049769f407879af",
    },
    "veech": {
        "above-threshold.csv": "09382229aa0b2888181d2d65243cb55962c522912759e63c0951b184c901d4ca",
        "constants.csv": "90959594696e2db44669d5cd712ac6d8be7c78d77bad34d0d92d3979d5bf34b0",
        "samples.csv": "0fa8d3a6140486a9d679a46b95ad9b63b2fa80f5aa8d4e2a7260513e5d9600bd",
        "summary.csv": "01645d33b8a5b2eaf1634b6168d33c356c4a3eaab8c7c110d2c3fef27b848a87",
    },
    "veech mertens": {
        "above-threshold.csv": "87ce5226e4330ebc43f6b65273166567790e8db93faa4021d1c96dba004b3291",
        "constants.csv": "96c6bec72beb50d896463adcedbb68d32912964f049339a80301e64a5ce135dc",
        "samples.csv": "b16de08ad352041975448d74aa80ef30a109ebad7564526fe45547d12733f68f",
        "summary.csv": "01645d33b8a5b2eaf1634b6168d33c356c4a3eaab8c7c110d2c3fef27b848a87",
    },
    "veech mertens w3 b64": {
        "above-threshold.csv": "1fbd4b1022c0eccff3c3d13cca07916d158868376351a3d4b8ca8de0e491afba",
        "constants.csv": "6f2ca7df6b472b85f7579607208a59d6c67deb6a04d886ae97261adf5a6466e6",
        "samples.csv": "4661f78b93dd2fecea8c3484d7132654cbadfcadb60465c6d849a29d458f370f",
        "summary.csv": "eae7ee7eb00ec6cd722912674bb1dd1be8084b40bd73ca47fef708087ec3008d",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_exact_default_outputs_keep_their_bytes(sandbox, name):
    result = invoke(sandbox, *PINNED_CONFIGS.get(name, (name, None)))
    assert result.exit_code == 0, result.output
    outputs = Path(run_dir_of(result)).iterdir()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs if p.name != "manifest.json"}
    assert digests == PINNED_OUTPUTS[name]


def test_davenport_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS threads a dot product above about 10^4 entries, so a refine
    # summed by BLAS wrote other bits at x = 10^5 on 2 threads than on 1
    (tmp_path / "config.json").write_text(json.dumps({"xs": [10**4, 10**5]}))
    src = str(Path(experiments.__file__).parents[1])
    written = []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, ERGOLAB_CACHE_DIR=str(tmp_path / "cache"),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        command = [sys.executable, "-c", "from ergolab.cli import main; main()", "davenport",
                   "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / f"blas{blas}")]
        done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        written.append((Path(done.stdout.strip()) / "davenport.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 3


def test_seed_changes_random_outputs(sandbox):
    config = {"grid": [64, 128], "tau": 0.5, "paths": 8}
    one = invoke(sandbox, "random-mertens", config, seed=1)
    two = invoke(sandbox, "random-mertens", config, seed=2, tag="config2")
    a = open(os.path.join(run_dir_of(one), "sups.csv"), "rb").read()
    b = open(os.path.join(run_dir_of(two), "sups.csv"), "rb").read()
    assert a != b


def _recorded_samples(monkeypatch, family_cls):
    """Every point sample family_cls draws from here on, in draw order."""
    drawn = []
    sample_points = family_cls.sample_points

    def record(self, n, rng):
        drawn.append(sample_points(self, n, rng))
        return drawn[-1]

    monkeypatch.setattr(family_cls, "sample_points", record)
    return drawn


def test_covering_bounds_and_entropy_draw_different_samples(sandbox, monkeypatch):
    drawn = _recorded_samples(monkeypatch, RotationFamily)
    family = {"type": "rotation", "size": 8, "alpha": ALPHA}
    config = {"family": family, "ns": [32], "sample_n": 32, "reps": 2}
    assert invoke(sandbox, "covering", config, seed=0).exit_code == 0
    bounds_sample, entropy_rep0 = drawn[0], drawn[1]
    assert not np.array_equal(bounds_sample, entropy_rep0)


def test_shatter_sample_and_greedy_dimension_draw_different_points(sandbox, monkeypatch):
    drawn = _recorded_samples(monkeypatch, BernoulliCoordinateFamily)
    config = {"family": {"type": "bernoulli", "size": 64}, "n": 4, "budget": 4}
    assert invoke(sandbox, "shatter", config, seed=0).exit_code == 0
    sample, first_candidate = drawn[0], drawn[1]
    assert not np.array_equal(sample[:1], first_candidate)


def test_cache_created_once_and_reused(sandbox):
    invoke(sandbox, "mertens", {"limit": 50})
    cache = sandbox / "cache"
    files = sorted(p.name for p in cache.iterdir())
    assert files == ["mobius-50.npy"]
    stamp = (cache / "mobius-50.npy").stat().st_mtime_ns
    invoke(sandbox, "mertens", {"limit": 50}, tag="config2")
    assert (cache / "mobius-50.npy").stat().st_mtime_ns == stamp


def test_veech_mertens_rule_sieves_through_the_cache(sandbox, monkeypatch):
    # the limit is the last block start the scan reads, worked out from w and budget
    for config, limit in [(MERTENS_SPEC, 17391), ({**MERTENS_SPEC, "w": 3, "budget": 64}, 1081)]:
        monkeypatch.setenv("ERGOLAB_CACHE_DIR", str(sandbox / f"cache-{limit}"))
        result = invoke(sandbox, "veech", config)
        assert result.exit_code == 0, result.output
        manifest = json.load(open(os.path.join(run_dir_of(result), "manifest.json")))
        assert manifest["limits"] == {"mobius": limit}
        assert sorted(p.name for p in (sandbox / f"cache-{limit}").iterdir()) == [f"mobius-{limit}.npy"]


def test_veech_mertens_limit_past_the_sieve_bound_exits_3_before_sieving(sandbox):
    result = invoke(sandbox, "veech", {**MERTENS_SPEC, "budget": 100_000})
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"] == "resource"
    assert not (sandbox / "cache").exists()


def test_random_walk_past_the_int32_bound_exits_3_before_drawing(sandbox, monkeypatch):
    def no_walk(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(experiments, "_PackedWalk", no_walk)
    result = invoke(sandbox, "random-mertens", {"grid": [1 << 30], "paths": 1})
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"] == "resource"
    assert not list((sandbox / "results").glob("*/*.csv"))


def test_cached_sieve_roundtrip(tmp_path):
    from ergolab.arith import sieve_liouville

    first = cached_sieve("liouville", 300, tmp_path)
    again = cached_sieve("liouville", 300, tmp_path)
    assert np.array_equal(first, sieve_liouville(300))
    assert np.array_equal(first, again)


def _cache_files(cache):
    return sorted(p.name for p in cache.iterdir())


def test_cached_sieve_serves_smaller_requests_as_prefix_slices(tmp_path):
    cached_sieve("mobius", 1000, tmp_path)
    stamp = (tmp_path / "mobius-1000.npy").stat().st_mtime_ns
    half = cached_sieve("mobius", 500, tmp_path)
    assert half.dtype == np.int8
    assert np.array_equal(half, sieve_mobius(500))
    assert _cache_files(tmp_path) == ["mobius-1000.npy"]
    assert (tmp_path / "mobius-1000.npy").stat().st_mtime_ns == stamp
    double = cached_sieve("mobius", 2000, tmp_path)
    assert np.array_equal(double, sieve_mobius(2000))
    assert _cache_files(tmp_path) == ["mobius-1000.npy", "mobius-2000.npy"]
    # the smallest covering entry serves; another kind is never a source
    assert np.array_equal(cached_sieve("mobius", 1500, tmp_path), sieve_mobius(1500))
    cached_sieve("liouville", 700, tmp_path)
    assert "liouville-700.npy" in _cache_files(tmp_path)
    with pytest.raises(ParameterError):
        cached_sieve("mobius", 0, tmp_path)


def _truncated(path, limit):
    np.save(path, np.ones(limit, dtype=np.int8))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _short(path, limit):
    np.save(path, sieve_mobius(limit - 100))


def _int64_zeros(path, limit):
    np.save(path, np.zeros(limit, dtype=np.int64))


def _out_of_range(path, limit):
    np.save(path, np.full(limit, 5, dtype=np.int8))


def _not_npy(path, limit):
    path.write_bytes(b"not an array")


DAMAGE = {"truncated": _truncated, "short": _short, "int64-zeros": _int64_zeros,
          "out-of-range": _out_of_range, "not-npy": _not_npy}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("request_limit", [500, 300], ids=["direct", "slice"])
def test_damaged_cache_entry_is_rebuilt(tmp_path, damage, request_limit):
    path = tmp_path / "mobius-500.npy"
    DAMAGE[damage](path, 500)
    table = cached_sieve("mobius", request_limit, tmp_path)
    assert np.array_equal(table, sieve_mobius(request_limit))
    assert _cache_files(tmp_path) == ["mobius-500.npy"]
    rebuilt = np.load(path)
    assert rebuilt.dtype == np.int8
    assert np.array_equal(rebuilt, sieve_mobius(500))


def test_damaged_cache_entry_through_the_cli(sandbox):
    cache = sandbox / "cache"
    cache.mkdir()
    _int64_zeros(cache / "mobius-300.npy", 300)
    result = invoke(sandbox, "mertens", {"limit": 300, "head": 3})
    assert result.exit_code == 0
    assert (Path(run_dir_of(result)) / "mertens.csv").read_text() == "x,m\n1,1\n2,0\n3,-1\n"


SEG = 64  # a small _SEGMENT, so every limit below crosses segment edges
STREAM_LIMITS = [1, SEG - 1, SEG, SEG + 1, 2 * SEG + 3]


def _full_table(kind, limit):
    return np.array([(ref_mobius if kind == "mobius" else ref_liouville)(n) for n in range(1, limit + 1)], np.int8)


def _npy_bytes(values):
    buffer = io.BytesIO()
    np.save(buffer, values)
    return buffer.getvalue()


@pytest.mark.parametrize("limit", STREAM_LIMITS)
@pytest.mark.parametrize("kind", ["mobius", "liouville"])
def test_streamed_cache_entry_has_the_bytes_of_np_save(tmp_path, monkeypatch, kind, limit):
    monkeypatch.setattr(arith, "_SEGMENT", SEG)
    full = _full_table(kind, limit)
    head = cached_sieve(kind, limit, tmp_path, 1)
    assert head.dtype == np.int8 and head.tolist() == [1]
    assert (tmp_path / f"{kind}-{limit}.npy").read_bytes() == _npy_bytes(full)
    assert _cache_files(tmp_path) == [f"{kind}-{limit}.npy"]


@pytest.mark.parametrize("kind", ["mobius", "liouville"])
def test_head_reads_are_slices_of_the_full_table(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(arith, "_SEGMENT", SEG)
    limit = 2 * SEG + 3
    full = _full_table(kind, limit)
    counts = [1, SEG - 1, SEG, SEG + 1, limit]
    for count in counts:  # a miss, then hits on the exact entry
        cache = tmp_path / f"miss-{count}"
        for path in ("miss", "hit"):
            table = cached_sieve(kind, limit, cache, count)
            assert np.array_equal(table, full[:count]), path
        assert _cache_files(cache) == [f"{kind}-{limit}.npy"]
    cache = tmp_path / f"miss-{limit}"
    for smaller, count in [(1, 1), (SEG, 1), (SEG, SEG), (SEG + 1, SEG - 1), (limit - 1, limit - 1)]:
        table = cached_sieve(kind, smaller, cache, count)  # a prefix slice of the larger entry
        assert np.array_equal(table, full[:count])
    assert _cache_files(cache) == [f"{kind}-{limit}.npy"]
    with pytest.raises(ParameterError, match="count"):
        cached_sieve(kind, limit, tmp_path, 0)
    with pytest.raises(ParameterError, match="count"):
        cached_sieve(kind, limit, tmp_path, limit + 1)


def test_head_read_range_checks_only_the_values_it_serves(tmp_path):
    values = sieve_mobius(500)
    values[400] = 5  # out of range, past the head a run reads
    np.save(tmp_path / "mobius-500.npy", values)
    assert np.array_equal(cached_sieve("mobius", 500, tmp_path, 300), values[:300])
    assert np.array_equal(cached_sieve("mobius", 500, tmp_path), sieve_mobius(500))
    assert np.array_equal(np.load(tmp_path / "mobius-500.npy"), sieve_mobius(500))


def test_exception_mid_stream_leaves_no_entry(tmp_path, monkeypatch):
    monkeypatch.setattr(arith, "_SEGMENT", SEG)
    written = []

    def failing(limit, keep, sink):
        def one_segment(segment):
            if written:
                raise RuntimeError("disk full")
            written.append(len(segment))
            sink(segment)

        return arith.sieve_mobius(limit, keep, one_segment)

    monkeypatch.setattr(harness, "sieve_mobius", failing)
    with pytest.raises(RuntimeError, match="disk full"):
        cached_sieve("mobius", 2 * SEG + 3, tmp_path / "cache", 5)
    assert written == [SEG]
    assert list((tmp_path / "cache").iterdir()) == []


def test_miss_past_the_sieve_bound_creates_no_cache_dir(tmp_path):
    with pytest.raises(ResourceLimitError):
        cached_sieve("mobius", arith.MAX_SIEVE_LIMIT + 1, tmp_path / "cache", 10)
    assert not (tmp_path / "cache").exists()


def test_miss_keeping_a_head_holds_o_segment_memory(tmp_path):
    # 2**25 entries are 32 MiB; the segmented write must hold well under half of that
    tracemalloc.start()
    try:
        table = cached_sieve("mobius", 1 << 25, tmp_path, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.tolist() == [ref_mobius(n) for n in range(1, 11)]
    assert peak < 16 << 20
    assert (tmp_path / f"mobius-{1 << 25}.npy").stat().st_size == (1 << 25) + 128


def _segments(entry, stop=None):
    """(lo, values) over [1, stop] (all `limit` by default), read through
    `CacheEntry.read` one SEG at a time."""
    stop = entry.limit if stop is None else stop
    return [(lo, entry.read(lo - 1, min(lo - 1 + SEG, stop))) for lo in range(1, stop + 1, SEG)]


@pytest.mark.parametrize("limit", STREAM_LIMITS)
@pytest.mark.parametrize("kind", ["mobius", "liouville"])
def test_segment_reader_matches_the_reference_sieve(tmp_path, monkeypatch, kind, limit):
    monkeypatch.setattr(arith, "_SEGMENT", SEG)
    expect = list(ref_sieve_segments(kind, 1, limit, SEG))
    for path in ("miss", "hit"):
        got = _segments(CacheEntry(kind, limit, tmp_path))
        assert [lo for lo, _ in got] == list(range(1, limit + 1, SEG)), path
        assert all(np.array_equal(g, e) and g.dtype == np.int8 for (_, g), e in zip(got, expect)), path
    assert _cache_files(tmp_path) == [f"{kind}-{limit}.npy"]
    # a smaller request reads the head of the larger entry, through `stop` too
    smaller = CacheEntry(kind, max(limit - 1, 1), tmp_path)
    assert smaller.path.name == f"{kind}-{limit}.npy"
    assert np.array_equal(np.concatenate([g for _, g in _segments(smaller, 1)]), expect[0][:1])
    assert np.array_equal(smaller.read(0, smaller.limit), np.concatenate(expect)[: smaller.limit])


@pytest.mark.parametrize("damage", ["truncated", "later-segment-out-of-range"])
def test_segment_reader_replaces_a_damaged_entry(tmp_path, monkeypatch, damage):
    monkeypatch.setattr(arith, "_SEGMENT", SEG)
    limit = 3 * SEG + 5
    full = _full_table("mobius", limit)
    path = tmp_path / f"mobius-{limit}.npy"
    if damage == "truncated":
        _truncated(path, limit)
    else:
        bad = full.copy()
        bad[2 * SEG + 1] = 5
        np.save(path, bad)
    got = _segments(CacheEntry("mobius", limit, tmp_path))
    assert np.array_equal(np.concatenate([g for _, g in got]), full)
    assert path.read_bytes() == _npy_bytes(full)  # replaced whole, with no temporary file left
    assert _cache_files(tmp_path) == [path.name]


def test_kernels_read_a_cached_walk_as_the_in_memory_one(tmp_path, monkeypatch):
    monkeypatch.setattr(arith, "_SEGMENT", SEG)
    monkeypatch.setattr(experiments, "_SEGMENT", SEG)
    monkeypatch.setattr(experiments, "_SUP_BLOCK", 16)
    monkeypatch.setattr(experiments, "_AT_BLOCKS", 2)
    n = 5 * SEG + 9
    ctx = RunContext(cache=tmp_path)
    cached, in_memory = ctx.walk(n), walk_of(sieve_mobius(n))
    assert ctx.limits == {"mobius": n} and _cache_files(tmp_path) == [f"mobius-{n}.npy"]
    assert np.array_equal(cached.starts, in_memory.starts) and np.array_equal(cached.mass, in_memory.mass)
    for x in (1, 15, 16, 17, 100, n // 2):
        assert experiments.short_interval_sup(cached, x, 0.4) == experiments.short_interval_sup(in_memory, x, 0.4)
    for x, h in ((1, 1), (50, 7), (100, 80)):
        assert experiments.interval_second_moment(cached, x, h) == experiments.interval_second_moment(in_memory, x, h)
    points = np.arange(1, math.isqrt(n) + 1) ** 2
    got, want = experiments.partition_mertens_sum(cached, points), experiments.partition_mertens_sum(in_memory, points)
    assert np.array_equal(got.deltas, want.deltas) and (got.abs_sum, got.veech) == (want.abs_sum, want.veech)


def test_walk_holds_checkpoints_not_the_table(tmp_path):
    n = 1 << 22  # 4 MiB of mu, whose int32 prefix would take 16 MiB
    np.save(tmp_path / f"mobius-{n}.npy", sieve_mobius(n))
    tracemalloc.start()
    try:
        walk = RunContext(cache=tmp_path).walk(n)
        walk_bytes = tracemalloc.get_traced_memory()[0]
        experiments.short_interval_sup(walk, n // 2, 0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert walk_bytes < 12 * n // experiments._SUP_BLOCK + (64 << 10)
    assert peak < 4 << 20


def test_second_moment_writes_only_its_largest_table(sandbox):
    result = invoke(sandbox, "second-moment", {"xs": [100, 1000], "h": 4})
    assert result.exit_code == 0, result.output
    manifest = json.load(open(os.path.join(run_dir_of(result), "manifest.json")))
    assert manifest["limits"] == {"mobius": 2004}
    assert _cache_files(sandbox / "cache") == ["mobius-2004.npy"]


@pytest.mark.parametrize(
    "name, config",
    [
        ("second-moment", {"exponent": -1}),
        ("second-moment", {"xs": [10**6], "exponent": 1.5}),
        ("partition", {"rule": "explicit", "points": [3_000_000, 2_000_000]}),
        ("besicovitch", {"limit": 100}),
        ("chowla", {"schedule": [4096]}),
        ("chowla", {"schedule": [8192, 4096]}),
        ("disjointness", {"system": {"variant": "rotation", "alpha": 0.25}}),
        ("gc-deviation", {"family": {"type": "subshift", "length": 100, "size": 101}}),
        ("bfree", {"limit": 100}),
        ("bfree", {"members": [4, 9], "k": 3}),
    ],
    ids=["negative", "above-one", "decreasing-points", "besicovitch-below-first-window", "chowla-one-point",
         "chowla-decreasing", "disjointness-rational-alpha", "subshift-shorter-than-size",
         "bfree-below-first-window", "bfree-k-past-members"],
)
def test_exponent_and_partition_order_rejected_before_sieving(sandbox, monkeypatch, name, config):
    def built(*args):
        raise AssertionError("the B-free indicator is built before the config is refused")

    monkeypatch.setattr(harness, "bfree_indicator", built)
    result = invoke(sandbox, name, config)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "config"
    assert not (sandbox / "results").exists()
    assert not (sandbox / "cache").exists() or not any((sandbox / "cache").iterdir())


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
    write_csv(path, ("a", "b"), [1, 2, 3], [0.5, None, True])
    assert path.read_bytes() == b"a,b\n1,0.5\n2,\n3,true\n"


_FLOATS = np.array([-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, -2.5e-300, 1.7976931348623157e308,
                    math.inf, -math.inf, math.nan, 123456789.125])


def _around(points) -> np.ndarray:
    """Each point, its neighbours 1 ulp either side, and their negatives."""
    points = np.asarray(points, dtype=np.float64)
    near = np.concatenate([np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf)])
    return np.concatenate([near, -near])


_QUARTERS = np.concatenate([2.0**50 + np.arange(0, 2**22, 1021) * 0.25, 2.0**51 - np.arange(1, 800) * 0.25])
_DECIMALS = np.concatenate([np.arange(1, 1200) / 10.0**j for j in range(0, 9)])
WRITE_CSV_COLUMNS = {
    "int8": [np.array([-128, -1, 0, 1, 127], dtype=np.int8)],
    "int64": [np.array([-(2**63), -1, 0, 2**53 + 1, 2**63 - 1], dtype=np.int64)],
    "uint": [np.array([0, 1, 255], dtype=np.uint8), np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)],
    "float64": [_FLOATS, _FLOATS[::-1].copy()],
    "float32": [np.array([0.1, -0.0, 3.4028235e38], dtype=np.float32)],
    "bool": [np.array([True, False, True]), np.array([False, False, True], dtype=np.bool_)],
    "mixed-lists": [
        [None, np.int64(-3), np.float64(0.25), np.bool_(False), True, 7],
        ["plain", "a b", "say 'hi'", "tab\there", "", None],
        (0.1, 2**70, -0.0, np.uint8(200), np.float32(0.1), np.int8(-1)),
    ],
    "zero-rows": [np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=bool), []],
    "int16-int32": [np.array([-(2**15), -7, 0, 9, 2**15 - 1], dtype=np.int16),
                    np.array([-(2**31), -10, 10, 99, 2**31 - 1], dtype=np.int32)],
    "int-extremes": [np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64),
                     np.array([2**64 - 1, 0, 1], dtype=np.uint64), np.array([0, 255, 10], dtype=np.uint8)],
    "int-sign-edges": [np.array([-(2**63), -1, 0, 2**63 - 1], dtype=np.int64),
                       np.array([2**64 - 1, 0, 1, 2**63], dtype=np.uint64)],
    "int-all-negative": [np.array([-1, -9, -10, -99, -100, -12345], dtype=np.int64),
                         np.array([-128, -1, -1, -2, -100, -10], dtype=np.int8)],
    "int-single-digit": [np.arange(10, dtype=np.int8), np.arange(9, -1, -1, dtype=np.uint64)],
    "int-zero-rows": [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8)],
    "int-one-row": [np.array([-42], dtype=np.int32), np.array([7], dtype=np.uint8)],
    **{
        f"int-block{delta:+d}": [
            np.arange(1, _ROW_BLOCK + delta + 1),
            np.resize(np.array([-1, 0, 1], dtype=np.int8), _ROW_BLOCK + delta),
            np.linspace(-(10**12), 10**15, _ROW_BLOCK + delta).astype(np.int64),
        ]
        for delta in (-1, 0, 1)
    },
    "int-and-float": [np.array([1, -2, 30]), np.array([0.5, -0.0, 1e16])],
    "float-zero-rows": [np.empty(0, dtype=np.int64), np.empty(0)],
    **{
        f"float-block{delta:+d}": [
            np.arange(_ROW_BLOCK + delta, dtype=np.uint32),
            np.resize(_FLOATS, _ROW_BLOCK + delta),
            np.linspace(-1e-3, 1e20, _ROW_BLOCK + delta).astype(np.float32),
        ]
        for delta in (-1, 0, 1)
    },
    "int-and-bool": [np.array([1, -2, 30], dtype=np.int8), np.array([True, False, True])],
    **{
        f"mixed-block{delta:+d}": [
            np.arange(-3, _ROW_BLOCK + delta - 3, dtype=np.int64),
            np.resize(_FLOATS, _ROW_BLOCK + delta),
            [[None, True, "plain", -7, False][i % 5] for i in range(_ROW_BLOCK + delta)],
            np.arange(_ROW_BLOCK + delta) % 3 == 0,
        ]
        for delta in (-1, 0, 1)
    },
    # one case per branch of _float_cells: the bounds of e (powers of ten),
    # every power of two in the range (below one, the code takes the wider
    # interval of the gap above), ties to even (the quarter-integers, whose
    # 17th digit is a 5), trailing digits dropped (short decimals), the rare
    # cells repr writes, and the range's edges
    "float-around-2**k": [_around(2.0 ** np.arange(-20, 61))],
    "float-around-10**k": [_around([float(f"1e{k}") for k in range(-6, 20)])],
    "float-quarter-integers": [np.arange(len(_QUARTERS)), _QUARTERS],
    "float-decimals": [_DECIMALS, -_DECIMALS[::-1]],
    "float-specials": [np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324])],
    "float-range-edges": [_around([1e-4, 1e16])],
    "float16-float32": [np.linspace(-65504, 65504, 4099).astype(np.float16),
                        np.geomspace(1e-7, 3e38, 4099).astype(np.float32)],
    "float-two-row-blocks": [np.arange(2 * _ROW_BLOCK + _FLOAT_BLOCK + 5, dtype=np.int64),
                             np.cos(np.arange(2 * _ROW_BLOCK + _FLOAT_BLOCK + 5) * 0.7)],
}


@pytest.mark.parametrize("case", sorted(WRITE_CSV_COLUMNS))
def test_write_csv_columns_match_row_writer(tmp_path, case):
    columns = WRITE_CSV_COLUMNS[case]
    header = tuple(f"c{i}" for i in range(len(columns)))
    write_csv(tmp_path / "columns.csv", header, *columns)
    ref_write_csv(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a", "b"), [1, 2], [1])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a", "b"), [1, 2])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a", "b"), np.arange(3), np.arange(2, dtype=np.int8))


def test_write_csv_floats_match_repr_on_random_bit_patterns(tmp_path):
    # 2**20 finite doubles from random bits: half keep their exponent (most
    # lie outside [1e-4, 1e16) and take repr), half get one where repr is
    # positional and NumPy writes the digits
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2**64, 2**20, dtype=np.uint64)
    bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 62)  # no inf or nan
    half = len(bits) // 2
    exponents = rng.integers(1009, 1077, half, dtype=np.uint64) << np.uint64(52)
    bits[half:] = (bits[half:] & ~np.uint64(0x7FF << 52)) | exponents
    values = bits.view(np.float64)
    assert np.isfinite(values).all()
    assert ((np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)).mean() > 0.5
    write_csv(tmp_path / "x.csv", ("x",), values)
    with open(tmp_path / "x.csv") as fh:
        assert fh.readline() == "x\n"
        mismatches = [(line, v) for line, v in zip(fh, map(float, values)) if line != f"{v!r}\n"]
        assert fh.read() == ""
    assert mismatches == []


# each case: header, columns, and whether csv.writer quotes the table; the
# 3.11 writer with lineterminator "\n" writes CR and NUL bare, and write_csv
# refuses both (its rows drop every zero byte, so a NUL would vanish)
QUOTED_TABLES = {
    **{f"cell {c!r}": (("a", "b"), [[1, 2], ["x", f"y{c}z"]], c not in "\r\0") for c in ',"\r\n\0'},
    **{f"header {c!r}": (("a", f"b{c}"), [[1], [2]], c not in "\r\0") for c in ',"\r\n\0'},
    "empty cell, one column": (("a",), [["x", ""]], True),
    "None, one column": (("a",), [[1.5, None]], True),
    "empty header, one column": (("",), [np.arange(3)], True),
}


@pytest.mark.parametrize("case", sorted(QUOTED_TABLES))
def test_write_csv_refuses_cells_csv_would_quote(tmp_path, case):
    header, columns, quoted = QUOTED_TABLES[case]
    if quoted:
        ref_write_csv(tmp_path / "rows.csv", header, zip(*columns))
        assert '"' in (tmp_path / "rows.csv").read_text()
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", header, *columns)
    assert not (tmp_path / "t.csv").exists()


# a file of the ASCII dialect cannot hold these; before the pre-open check
# the first case raised UnicodeEncodeError after "a,b\n" was on disk
NON_ASCII_TABLES = {
    "cell": (("a", "b"), [[1, 2], ["x", "\u00e9"]]),
    "cell, one column": (("a",), [["x", "\u00b5"]]),
    "header name": (("a", "\u03bc"), [[1], [2]]),
    "header name over integer arrays": (("\u03bb",), [np.arange(3)]),
}


@pytest.mark.parametrize("case", sorted(NON_ASCII_TABLES))
def test_write_csv_refuses_non_ascii_before_opening_the_file(tmp_path, case):
    header, columns = NON_ASCII_TABLES[case]
    with pytest.raises(ValueError, match="non-ASCII"):
        write_csv(tmp_path / "t.csv", header, *columns)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_default_run_writes_the_row_writers_bytes(tmp_path, monkeypatch, name):
    # the defaults PINNED_OUTPUTS leaves out are here too, and no default run
    # writes a cell that csv.writer would quote
    tables = []

    def checked(path, header, *columns):
        write_csv(path, header, *columns)
        ref_write_csv(tmp_path / "rows.csv", header, zip(*columns))
        assert Path(path).read_bytes() == (tmp_path / "rows.csv").read_bytes(), Path(path).name
        tables.append(Path(path).name)

    monkeypatch.setattr(harness, "write_csv", checked)
    config = {"block": [1, 2]} if name == "admissible" else None
    harness.run_experiment(name, config, out=tmp_path / "results", cache=tmp_path / "cache")
    assert tables


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
    assert params["spec"] == {"generator": "triangular", "sign_rule": "alternating"}
    params, _ = prepare_run(REGISTRY["orbit"], {"system": {"variant": "bernoulli"}}, None)
    assert params["system"] == {"variant": "bernoulli", "p": 0.5, "seed": 0}
    params, _ = prepare_run(REGISTRY["veech"], {"spec": {"starts": [1, 3, 6], "signs": [1, -1]}}, None)
    assert params["spec"] == {"starts": [1, 3, 6], "signs": [1, -1]}


MALFORMED = [
    # integer-valued floats, at the top level and inside sub-documents
    ("gc-deviation", {"reps": 2.0}, "reps"),
    ("sieve", {"head": 10.0}, "head"),
    ("sieve", {"limit": 100.0}, "limit"),
    ("zhan", {"thetas": 8.0}, "thetas"),
    # bounds the kernels would only find after sieving: tau in (0, 1], a Davenport transform inside MAX_FFT
    *[(name, {"tau": tau}, "tau") for name in ("short-interval", "zhan", "random-mertens") for tau in (0, 1.5)],
    ("davenport", {"xs": [10**7]}, "xs.0"),
    ("davenport", {"xs": [1]}, "xs.0"),
    ("covering", {"ns": [4.0]}, "ns.0"),
    ("gc-deviation", {"family": {"type": "bernoulli", "size": 2.0}}, "family.size"),
    ("orbit", {"system": {"variant": "bernoulli", "seed": 1.0}}, "system.seed"),
    # keys that are gone: veech works out its Mertens limit, a Bernoulli system has nothing to check
    *[("veech", {"spec": {"generator": "triangular", "sign_rule": rule, "mertens_limit": limit}}, "mertens_limit")
      for rule, limit in [("mertens", 100.0), ("mertens", 0), ("mertens", -5), ("mertens", 100_000),
                          ("plus", 5), ("minus", 5), ("alternating", 5)]],
    ("orbit", {"system": {"variant": "bernoulli", "check": True}}, "check"),
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
    assert not (sandbox / "cache").exists()


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
    for value in vars(acceptance).values():  # no run or table may come from an earlier suite
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    result = CliRunner().invoke(main, ["verify", "quick"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    assert "FAIL" not in result.output
    # the suite keeps its runs and tables in its own directory: nothing in the
    # working directory (./cache, ./results) or under $ERGOLAB_CACHE_DIR
    assert list(sandbox.rglob("*")) == []
    assert not Path(os.environ["ERGOLAB_CACHE_DIR"]).exists()


def test_verify_json_prints_one_object_per_criterion(monkeypatch):
    results = [acceptance.CriterionResult(1, "one", True, "ok", 0.25),
               acceptance.CriterionResult(7, "seven", False, "x = 2", 1.5)]
    monkeypatch.setattr(acceptance, "run_suite", lambda suite: results[: 1 if suite == "quick" else 2])
    quick = CliRunner().invoke(main, ["verify", "quick", "--json"])
    assert quick.exit_code == 0, quick.output
    assert [json.loads(line) for line in quick.output.splitlines()] == [
        {"cid": 1, "name": "one", "passed": True, "detail": "ok", "elapsed": 0.25}
    ]
    full = CliRunner().invoke(main, ["verify", "full", "--json"])
    assert full.exit_code == 4
    assert [json.loads(line) for line in full.output.splitlines()][1] == {
        "cid": 7, "name": "seven", "passed": False, "detail": "x = 2", "elapsed": 1.5
    }
    rows = CliRunner().invoke(main, ["verify", "full"])  # without the flag: rows and a summary, as before
    assert rows.exit_code == 4
    assert rows.output == "PASS   1  one: ok\nFAIL   7  seven: x = 2\n1/2 criteria passed\n"


def test_verify_rejects_unknown_suite():
    result = CliRunner().invoke(main, ["verify", "everything"])
    assert result.exit_code != 0
