"""Config checking: the in-house schema checker against the JSON Schema
reference validator, the keyword guard, and a boundary sweep showing that
every refusal comes before any table is read."""

import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import harness
from ergolab.errors import ParameterError, ResourceLimitError
from ergolab.experiments import MAX_FFT
from ergolab.harness import REGISTRY, _unchecked, _violation, run_experiment


def reference_validator(schema):
    """jsonschema's Draft 2020-12 validator with the registry's integer rule
    (2.0 and true are not integers); the test extra installs it."""
    jsonschema = pytest.importorskip("jsonschema")
    draft = jsonschema.Draft202012Validator

    def is_integer(checker, value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    return jsonschema.validators.extend(draft, type_checker=draft.TYPE_CHECKER.redefine("integer", is_integer))(schema)


# ---------------------------------------------------------------------------
# documents built from each schema: its defaults and consts, the numbers at and
# around its bounds, values of the wrong type, unknown keys, missing keys, and
# every sub-document branch alone or mixed with another

WRONG = [None, True, False, 0, 1, -1, 2, 1.0, 2.0, 0.5, -0.0, 2**64, "x", "mobius", [], [1], {}, {"a": 1}]


def _boundary(schema) -> list:
    values = [schema[k] for k in ("default", "const") if k in schema] + list(schema.get("enum", ()))
    for k in ("minimum", "exclusiveMinimum", "maximum"):
        if k in schema:
            b = schema[k]
            values += [b - 1, b, b + 1, b - 0.5, b + 0.5, float(b)]
    return values


def values(schema):
    """Values mostly near what `schema` accepts, some far from it."""
    if "oneOf" in schema:
        branches = [documents(b) for b in schema["oneOf"]]
        mixed = st.tuples(st.one_of(*branches), st.one_of(*branches)).map(lambda pair: {**pair[0], **pair[1]})
        return st.one_of(*branches, mixed, st.sampled_from(WRONG))
    options = [st.sampled_from(_boundary(schema) + WRONG)]
    if "properties" in schema:
        options.append(documents(schema))
    if "items" in schema:
        options.append(st.lists(values(schema["items"]), max_size=3))
        options.append(st.lists(st.sampled_from(_boundary(schema["items"]) or WRONG), min_size=1, max_size=3))
    return st.one_of(*options)


def documents(schema):
    """Objects over a schema's properties: each required key usually present,
    each other key sometimes, now and then an unknown key."""
    properties = {key: values(sub) for key, sub in schema["properties"].items()}

    @st.composite
    def build(draw):
        doc = {}
        for key, strategy in properties.items():
            if draw(st.booleans()) or (key in schema.get("required", ()) and draw(st.integers(0, 9)) > 0):
                doc[key] = draw(strategy)
        if draw(st.integers(0, 5)) == 0:
            doc[draw(st.sampled_from(["unknown", "seed", "experiment", "alpha", "type"]))] = draw(st.sampled_from(WRONG))
        return doc

    return build()


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_checker_agrees_with_the_reference_validator(name):
    schema = REGISTRY[name].schema()
    reference = reference_validator(schema)

    @settings(max_examples=150, deadline=None, database=None)
    @given(documents(schema))
    def agree(doc):
        assert (_violation(schema, doc) is None) == reference.is_valid(doc), doc

    agree()


@pytest.mark.parametrize(
    "schema, value, message",
    [
        ({"type": "integer"}, 2.0, "2.0 is not of type 'integer'"),
        ({"type": "integer"}, True, "True is not of type 'integer'"),
        ({"type": "number"}, False, "False is not of type 'number'"),
        ({"type": ["integer", "null"]}, "x", "'x' is not of type 'integer', 'null'"),
        ({"enum": ["mobius", None]}, 0, "0 is not one of ['mobius', None]"),
        ({"const": 1}, True, "1 was expected"),
        ({"minimum": 2}, 1, "1 is less than the minimum of 2"),
        ({"exclusiveMinimum": 0}, 0, "0 is less than or equal to the minimum of 0"),
        ({"maximum": MAX_FFT}, MAX_FFT + 1, f"{MAX_FFT + 1} is greater than the maximum of {MAX_FFT}"),
        ({"type": "array", "minItems": 1}, [], "[] should be non-empty"),
        ({"type": "array", "minItems": 2}, [1], "[1] is too short"),
        (harness._object(["a"], a={}), {}, "'a' is a required property"),
        (harness._object([], a={}), {"c": 1, "b": 2}, "Additional properties are not allowed ('b', 'c' were unexpected)"),
    ],
)
def test_violation_wording(schema, value, message):
    assert _violation(schema, value) == ((), message)


def test_minimum_applies_to_numbers_only():
    assert _violation({"type": ["integer", "null"], "minimum": 1}, None) is None
    assert _violation({"type": ["array", "null"], "items": {"minimum": 1}}, None) is None


def test_violation_names_the_path_of_an_item():
    schema = REGISTRY["davenport"].schema()
    assert _violation(schema, {"xs": [4, 1]}) == (("xs", 1), "1 is less than the minimum of 2")


def test_unimplemented_keywords_are_found():
    # harness raises at import when a registry schema has one
    assert set().union(*(_unchecked(e.schema()) for e in REGISTRY.values())) == set()
    assert _unchecked({"type": "object", "properties": {"xs": {"type": "array", "maxItems": 3}}}) == {"maxItems"}
    assert _unchecked({"oneOf": [{"properties": {"s": {"items": {"pattern": "a"}}}}]}) == {"pattern"}
    assert _unchecked({"type": "object", "additionalProperties": {"type": "integer"}}) == {"additionalProperties"}


def test_ergolab_imports_without_jsonschema():
    code = "import sys, ergolab.cli, ergolab.acceptance; sys.exit('jsonschema' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# ---------------------------------------------------------------------------
# every refusal before any table: a boundary sweep over the registry

INTEGERS = (1, 2, 3, 7, 64, 100, 4096)
NUMBERS = (-1, -0.5, 0, 0.25, 0.5, 1, 1.5, 2)
ARRAYS = ([1], [2], [1, 2], [2, 1], [2, 3], [7, 7], [64, 4096])
THRESHOLDS = ((0.9, 0.1), (0.5, 0.5), (0.1, 0.9), (-0.5, 0.5))
# table-free runs kept small, so that each boundary value alone sets the cost
SMALL = {
    "orbit": {"n": 64},
    "probe-equicont": {"n": 64, "deltas": [0.5], "pairs": 4},
    "gc-deviation": {"n": 16, "reps": 4},
    "covering": {"ns": [16], "sample_n": 16, "reps": 2},
    "shatter": {"family": {"type": "bernoulli", "size": 64}, "n": 4, "budget": 8},
    "shatter-prob": {"family": {"type": "bernoulli", "size": 64}, "n": 4, "reps": 4},
    "random-mertens": {"grid": [64, 256], "paths": 2},
    "veech": {"w": 4, "budget": 64},
}


def boundary_configs():
    for name, experiment in REGISTRY.items():
        for key, schema in experiment.properties.items():
            types = schema.get("type", ())
            types = [types] if isinstance(types, str) else types
            trials = [*INTEGERS * ("integer" in types), *NUMBERS * ("number" in types)]
            if "array" in types and schema["items"].get("type") == "integer":
                trials += ARRAYS
            for value in trials:
                yield name, {**SMALL.get(name, {}), key: value}
        if "alpha" in experiment.properties and "family" in experiment.properties:
            for (alpha, beta), length in itertools.product(THRESHOLDS, (3, 64, 3000)):
                family = {"type": "subshift", "length": length, "size": 8}
                yield name, {**SMALL[name], "family": family, "alpha": alpha, "beta": beta}


def test_every_refusal_comes_before_any_table_read(tmp_path, monkeypatch):
    # A table read hands the run ones instead of sieving, and is recorded:
    # a ParameterError after one is a check that came too late.
    reads = []

    def read(self, start, stop):
        reads.append((self.kind, self.limit))
        return np.ones(max(stop - start, 0), dtype=np.int8)

    def indicator(spec, limit):
        reads.append(("bfree", limit))
        return np.ones(limit, dtype=np.int8)

    monkeypatch.setattr(harness.CacheEntry, "read", read)
    monkeypatch.setattr(harness, "bfree_indicator", indicator)
    flagged, refused = [], 0
    for name, config in boundary_configs():
        reads.clear()
        try:
            run_experiment(name, config, out=tmp_path / "results", cache=tmp_path / "cache")
        except ResourceLimitError:
            refused += 1
        except ParameterError as exc:
            refused += 1
            if reads:
                flagged.append((name, config, f"refused after reading {reads[0]}: {exc}"))
        except Exception as exc:  # anything else is a crash, not a refusal
            flagged.append((name, config, repr(exc)))
    assert not flagged
    assert refused > 100  # the sweep does reach the checks
    assert not (tmp_path / "cache").exists()
