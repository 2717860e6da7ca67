"""Fuzz of malformed input at every entry point of a dataset or a config.

`ConstraintFunction` and `EmpiricalStrategy` reject a value that is not a
finite real number where it enters, and `load_dataset` names the block.  Each
malformed value must raise ValueError: never a numpy RuntimeWarning (an error
under this suite's warning filter), TypeError, IndexError, OverflowError or a
silent result.  `pareto-forge audit` on such a file exits 2 and writes nothing,
and so do `generate`, `spsa`, `dro` and `mc` on a config the schema rejects.
"""

from __future__ import annotations

import json
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pareto_forge.cli import main
from pareto_forge.core import (
    ConstraintFunction,
    EmpiricalStrategy,
    RPDataset,
    load_dataset,
    save_dataset,
)

HUGE = st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))  # too large to be a float
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# values that JSON can hold and no coefficient or coordinate may take
JSON_BAD = st.one_of(
    NON_FINITE,
    HUGE,
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["0.5", "nan", "1e400"]),
    st.just([1.0]),
    st.just({"b": 1.0}),
)
# and what only the in-memory API can be handed
API_BAD = JSON_BAD | st.sampled_from(
    [np.True_, np.False_, np.float64(np.nan), np.float32(np.inf), 1 + 0j, Fraction(10**400), b"1"]
)


def _saved_doc() -> str:
    """A saved T = M = k = 2 dataset, with a shifted probe at (0, 1) so that every field is present."""
    base = ConstraintFunction((2.0, 1.0), 1.0)
    cons = (
        (base, base.shifted(0.25, (1.0, 0.0))),
        (ConstraintFunction((1.0, 2.0), 1.0), base),
    )
    x = EmpiricalStrategy(np.array([[0.25, 0.25], [0.0, 0.5]]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.json"
        save_dataset(RPDataset(cons, ((x, x), (x, x))), path)
        return path.read_text()


SAVED = _saved_doc()


@st.composite
def _edits(draw):
    """The saved document with one malformed entry, and the start of the message it must raise."""
    doc = json.loads(SAVED)
    where = draw(
        st.sampled_from(
            ["header", "grid", "row", "kind", "coefficient", "vector", "block", "sample", "point", "samples"]
        )
    )
    bad = draw(JSON_BAD)
    t, i = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    if where == "header":
        key = draw(st.sampled_from(["T", "M", "k"]))
        # a huge int is a JSON integer: it fails later, as a header the grids disagree with
        doc[key] = draw(JSON_BAD.filter(lambda v: type(v) is not int) | st.sampled_from([2.0, 2.5]))
        return doc, f"dataset file key '{key}' is not an integer"
    if where in ("grid", "row"):
        key = draw(st.sampled_from(["constraints", "strategies"]))
        bad = draw(JSON_BAD.filter(lambda v: type(v) is not list))
        if where == "grid":
            doc[key] = bad
        else:
            doc[key][t] = bad
        return doc, f"dataset file key '{key}' is not a list of rows"
    if where == "kind":  # any JSON value but "affine", the one probe kind
        kinds = st.text(max_size=12) | st.sampled_from(["log_sigmoid", "quadratic", "Affine", "affine "])
        doc["constraints"][t][i]["kind"] = draw((JSON_BAD | kinds).filter(lambda v: v != "affine"))
        return doc, f"constraint ({t},{i}) "
    if where == "coefficient":
        field = draw(st.sampled_from(["alpha", "b", "a_t", "beta"]))
        if field in ("alpha", "beta"):
            t, i = (0, 1) if field == "beta" else (t, i)  # the shifted probe has a beta
            doc["constraints"][t][i][field][draw(st.integers(0, 1))] = bad
        else:
            doc["constraints"][t][i][field] = bad
        return doc, f"constraint ({t},{i}) has a non-"
    if where == "vector":  # a coefficient vector that is not a list
        doc["constraints"][t][i]["alpha"] = draw(JSON_BAD.filter(lambda v: type(v) is not list))
        return doc, f"constraint ({t},{i}) has a non-numeric coefficient"
    if where == "block":
        key = draw(st.sampled_from(["constraints", "strategies"]))
        doc[key][t][i] = bad
        return doc, f"{'constraint' if key == 'constraints' else 'strategy'} ({t},{i}) lacks the key "
    if where == "sample":
        doc["strategies"][t][i]["samples"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = bad
        return doc, f"strategy ({t},{i}) has a non-"
    # a point or sample list that is no list of points: a one-coordinate point makes
    # a ragged list and an empty str no coordinate, which numpy rejects in its own words
    if where == "point":
        doc["strategies"][t][i]["samples"][draw(st.integers(0, 1))] = bad
    else:
        doc["strategies"][t][i]["samples"] = bad
    return doc, f"strategy ({t},{i})"


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(["alpha", "b", "a_t", "beta"]),
    j=st.integers(0, 2),
    bad=API_BAD,
)
def test_constraint_function_rejects_a_malformed_coefficient(field, j, bad):
    coefs = {"alpha": [1.0, 2.0, 0.5], "b": 1.0, "a_t": 0.5, "beta": [1.0, 0.0, 1.0]}
    if field in ("alpha", "beta"):
        coefs[field][j] = bad
    else:
        coefs[field] = bad
    fields = {key: tuple(v) if type(v) is list else v for key, v in coefs.items()}
    with pytest.raises(ValueError, match=r"^constraint has a non-(numeric|finite) coefficient$"):
        ConstraintFunction(**fields)


@settings(max_examples=200, deadline=None)
@given(
    where=st.sampled_from(["coordinate", "point", "samples", "array"]),
    n=st.integers(0, 1),
    j=st.integers(0, 1),
    bad=API_BAD,
    dtype=st.sampled_from([bool, object, complex, str, "datetime64[s]"]),
)
def test_empirical_strategy_rejects_malformed_samples(where, n, j, bad, dtype):
    samples = [[0.5, 1.0], [0.0, 2.0]]
    if where == "coordinate":
        samples[n][j] = bad
    elif where == "point":
        samples[n] = bad
    elif where == "samples":
        samples = bad
    elif dtype == "datetime64[s]":
        samples = np.zeros((2, 2), dtype=dtype)
    else:
        samples = np.array([[1, 0], [0, 1]]).astype(dtype)
    with pytest.raises(ValueError):
        EmpiricalStrategy(samples)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_edits())
def test_load_dataset_rejects_a_malformed_file_naming_the_entry(tmp_path, edit):
    doc, prefix = edit
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value).startswith(prefix)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_edits())
def test_audit_exits_two_on_a_malformed_file_and_writes_nothing(capsys, edit):
    doc, prefix = edit
    with tempfile.TemporaryDirectory() as tmp:  # its own directory, so no example sees another's output
        path, out = Path(tmp) / "d.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["audit", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"audit error: {prefix}")
        assert not out.exists()


SCHEMA = json.loads(resources.files("pareto_forge").joinpath("schemas/config.schema.json").read_text())
BLOCKS = sorted(SCHEMA["properties"])
# (block, key, its schema) of every config key, and of those with a lower bound
FIELDS = [(b, k, spec) for b in BLOCKS for k, spec in SCHEMA["properties"][b]["properties"].items()]
BOUNDED = [f for f in FIELDS if {"minimum", "exclusiveMinimum"} & f[2].keys()]
# JSON values of every type but the named one (jsonschema counts no bool as a number)
WRONG_TYPE = {
    "integer": ["1", True, None, [1], {"a": 1}, 2.5],
    "number": ["1", True, None, [1], {"a": 1}],
    "array": ["1", 1, True, None, {"a": 1}],
    "string": [1, True, None, ["spsa"], {"a": 1}],
}


@st.composite
def _bad_configs(draw):
    """A config the schema rejects: one unknown key, wrong type, value below its minimum,
    non-finite number or the retired ``monte_carlo.parallelism``."""
    kind = draw(st.sampled_from(["unknown", "type", "minimum", "non-finite", "parallelism"]))
    if kind == "parallelism":
        return {"monte_carlo": {"parallelism": draw(st.integers(1, 4))}}
    if kind == "unknown":
        key = draw(st.text(max_size=6)) + "?"  # no schema key has a "?"
        return {key: {}} if draw(st.booleans()) else {draw(st.sampled_from(BLOCKS)): {key: 1}}
    if kind == "minimum":
        block, key, spec = draw(st.sampled_from(BOUNDED))
        least = spec.get("minimum", spec.get("exclusiveMinimum"))
        if spec["type"] == "integer":
            value = draw(st.integers(max_value=least - 1))
        else:
            value = draw(
                st.floats(max_value=least, exclude_max="minimum" in spec, allow_nan=False, allow_infinity=False)
            )
        return {block: {key: value}}
    block, key, spec = draw(st.sampled_from(FIELDS))
    if kind == "type":
        return {block: {key: draw(st.sampled_from(WRONG_TYPE[spec["type"]]))}}
    # json.dumps writes a NaN or Infinity literal, which json.load reads back
    value = draw(NON_FINITE)
    return {block: {key: [value] if spec["type"] == "array" else value}}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["generate", "spsa", "dro", "mc"]), doc=_bad_configs())
def test_config_commands_exit_two_on_a_rejected_config_and_write_nothing(capsys, command, doc):
    with tempfile.TemporaryDirectory() as tmp:  # its own directory, so no example sees another's output
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(("invalid config: ", "cannot read config "))
        assert not out.exists()
