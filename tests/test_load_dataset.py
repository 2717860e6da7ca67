"""`load_dataset` reads a file as arrays; a per-block loader is its slow reference.

The reference below checks the header and then builds every block object
first, by the walk that `load_dataset` falls back to when a bulk check fails,
and the dataset from blocks.  On a valid file the array path must give the same
``gbar``, bit for bit, and lazily built blocks equal to the reference's; on a
malformed one it must raise the same exception with the same text.  An
``audit`` reads only the arrays, so it builds no block object at all.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pareto_forge.cli import main
from pareto_forge.core import (
    ConstraintFunction,
    EmpiricalStrategy,
    RPDataset,
    _walk,
    load_dataset,
    save_dataset,
)
from pareto_forge.synthetic import violating_dataset

# --- the per-block reference loader ------------------------------------------


def reference_load(path) -> RPDataset:
    """The file's header checked, then every block object built in row order
    (:func:`pareto_forge.core._walk`) and the dataset built from blocks."""
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("T", "M", "k", "constraints", "strategies"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"dataset file lacks the key {key!r}")
    for key in ("T", "M", "k"):
        if type(doc[key]) is not int:
            raise ValueError(f"dataset file key {key!r} is not an integer")
    for key in ("constraints", "strategies"):
        if type(doc[key]) is not list or any(type(row) is not list for row in doc[key]):
            raise ValueError(f"dataset file key {key!r} is not a list of rows")
    return _walk(doc)


# --- valid and malformed files ------------------------------------------------

SHIFTS = ("absent", "empty", "zero", "shifted")  # no keys, "beta": [], all-zero beta, a shift


@st.composite
def _valid_docs(draw):
    """A file that both loaders accept: ragged sample counts, ints, shifts and extra keys."""
    T, M, k = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ints = draw(st.booleans())
    ragged = draw(st.booleans())
    counts = rng.integers(1, 5, size=(T, M)) if ragged else np.full((T, M), draw(st.integers(1, 4)))
    cons, strats = [], []
    for t in range(T):
        crow, srow = [], []
        for i in range(M):
            if ints:  # JSON integers in every field
                alpha = [int(a) for a in rng.integers(1, 4, size=k)]
                x = rng.integers(0, 3, size=(counts[t, i], k))
            else:
                alpha = [float(a) for a in rng.uniform(0.1, 3.0, size=k)]
                x = rng.uniform(0.0, 2.0, size=(counts[t, i], k))
                x[rng.random(x.shape) < 0.2] = -0.0
            obj = {"kind": "affine", "alpha": alpha}
            shift = draw(st.sampled_from(SHIFTS))
            a_t, beta = 0.0, np.zeros(k)
            if shift != "absent":
                a_t = float(rng.uniform(-1.0, 1.0)) if shift == "shifted" else draw(st.sampled_from([0.0, -0.0, 0.5]))
                beta = rng.uniform(0.0, 1.0, size=k) if shift == "shifted" else np.zeros(k)
                obj.update(a_t=a_t, beta=[] if shift == "empty" else beta.tolist())
                beta = np.zeros(k) if shift == "empty" else beta
            # the level sits at or above every sample's value of alpha . (x - a_t * beta)
            level = float((((x - a_t * beta) * np.asarray(alpha, dtype=float)).sum(axis=1)).max())
            obj["b"] = int(np.ceil(level)) + 1 if ints else level + float(rng.choice([1e-3, rng.uniform(0.0, 2.0)]))
            if draw(st.booleans()):
                obj["note"] = "an extra key"
            crow.append(obj)
            srow.append({"samples": x.tolist(), **({"label": [1, 2]} if rng.random() < 0.2 else {})})
        cons.append(crow)
        strats.append(srow)
    return {"T": T, "M": M, "k": k, "constraints": cons, "strategies": strats}


JSON_BAD = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), True, False, None]),
    st.sampled_from(["", "0.5", "ab", [], [1.0], [[1.0]], {}, {"b": 1.0}, 2**70, -0.0, 1e308]),
)


def _entry(draw, doc):
    """(parent, key) of a header key or of an entry inside a block, or None if it is gone."""
    section = draw(st.sampled_from([*["strategies", "constraints"] * 6, "T", "M", "k"]))
    if section not in doc:
        return None
    parent, key = doc, section
    if section in ("constraints", "strategies"):  # down to a block, then deeper at random
        for _depth in range(draw(st.sampled_from([3, 4, 5, 3, 4, 5, 2, 1]))):  # 1: a row, 3: a field
            node = parent[key]
            if isinstance(node, dict) and node:
                parent, key = node, draw(st.sampled_from(sorted(node)))
            elif isinstance(node, list) and node:
                parent, key = node, draw(st.integers(0, len(node) - 1))
    return parent, key


@st.composite
def _malformed_docs(draw):
    """A valid file with one to three edits: a value replaced or scaled, a key deleted or a
    list extended."""
    doc = draw(_valid_docs())
    for _ in range(draw(st.integers(1, 3))):
        entry = _entry(draw, doc)
        if entry is None:
            continue
        parent, key = entry
        node = parent[key]
        edit = draw(st.sampled_from(["scale", "value", "scale", "delete", "append"]))
        if edit == "delete":
            del parent[key]
        elif edit == "append" and isinstance(node, list):
            node.append(copy.deepcopy(draw(JSON_BAD | st.just(node[-1] if node else 0.5))))
        elif edit == "scale" and type(node) in (int, float) and abs(node) <= 1e300:  # no int overflow
            parent[key] = node * draw(st.sampled_from([-1, 3, 1e300]))
        else:
            parent[key] = copy.deepcopy(draw(JSON_BAD))  # the drawn list or dict may be edited next
    return doc


def _outcome(load, path):
    try:
        return load(path)
    except Exception as err:  # noqa: BLE001 - the reference decides what is expected
        return err


def _assert_same_blocks(d: RPDataset, ref: RPDataset) -> None:
    assert "constraints" not in vars(d) and "strategies" not in vars(d)  # built only when read
    assert d.gbar.tobytes() == ref.gbar.tobytes()
    assert d.constraints == ref.constraints
    assert repr(d.constraints) == repr(ref.constraints)  # -0.0 and every float's bits alike
    for row, ref_row in zip(d.strategies, ref.strategies, strict=True):
        for s, r in zip(row, ref_row, strict=True):
            assert s.samples.shape == r.samples.shape and s.samples.tobytes() == r.samples.tobytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_valid_docs())
def test_a_valid_file_reads_as_the_reference_bit_for_bit(tmp_path, doc):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    ref = reference_load(path)
    d = load_dataset(path)
    _assert_same_blocks(d, ref)
    again = tmp_path / "again.json"
    save_dataset(d, again)
    save_dataset(ref, path)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_malformed_docs())
def test_a_malformed_file_fails_as_the_reference(tmp_path, doc):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    expected, got = _outcome(reference_load, path), _outcome(load_dataset, path)
    if isinstance(expected, RPDataset):  # an edit may leave the file valid
        assert isinstance(got, RPDataset), got
        _assert_same_blocks(got, expected)
        return
    assert type(got) is type(expected)
    assert str(got) == str(expected)


def test_the_walk_names_the_first_bad_block_in_row_order(tmp_path):
    # a bool sample fails the bulk type scan, and the walk then names the earlier bad probe
    path = tmp_path / "d.json"
    save_dataset(violating_dataset(4, 2, 2, seed=0), path)
    doc = json.loads(path.read_text())
    doc["strategies"][0][0]["samples"][0][0] = True
    doc["constraints"][3][1]["b"] = "1"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"^constraint \(3,1\) has a non-numeric coefficient$"):
        load_dataset(path)


# --- the audit path builds no block object --------------------------------------


def _count_constructions(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for cls in (ConstraintFunction, EmpiricalStrategy, RPDataset):
        post = cls.__post_init__

        def counted(self, _post=post, _name=cls.__name__):
            counts[_name] += 1
            return _post(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def test_audit_builds_one_dataset_and_no_block(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d.json"
    save_dataset(violating_dataset(8, 3, 3, seed=0), path)
    counts = _count_constructions(monkeypatch)
    assert main(["audit", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert counts == {"RPDataset": 1}
    counts.clear()
    d = load_dataset(path)
    assert (d.T, d.M, d.k) == (8, 3, 3)
    assert counts == {"RPDataset": 1}
    assert "constraints" not in vars(d) and "strategies" not in vars(d)
    assert len(d.constraints) == len(d.strategies) == 8
    assert counts == {"RPDataset": 1, "ConstraintFunction": 24, "EmpiricalStrategy": 24}
    assert d.constraints is d.constraints and d.strategies is d.strategies  # built once


def test_a_dataset_built_from_blocks_keeps_them(monkeypatch):
    d = violating_dataset(3, 2, 2, seed=1)
    cons, strats = d.constraints, d.strategies
    counts = _count_constructions(monkeypatch)
    rebuilt = RPDataset(cons, strats)
    assert counts == {"RPDataset": 1}
    assert rebuilt.constraints == cons
    assert all(a is b for row, ref in zip(rebuilt.strategies, strats) for a, b in zip(row, ref))
