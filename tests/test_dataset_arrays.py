"""A dataset is its period-major arrays, whichever producer built it.

Play (s, i) sits at ``X[s, i, :n[s, i]]``, byte for byte its lazily built
strategy's samples, and every padding slot is +0.0.  ``save_dataset`` writes
from the arrays; its slow reference below writes from the block objects, as
the file format was first defined.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pareto_forge.core import ConstraintFunction, EmpiricalStrategy, RPDataset, load_dataset, save_dataset
from pareto_forge.game import RiverPollutionGame, collect_dataset, river_probes
from pareto_forge.synthetic import consistent_dataset, dro_instance, violating_dataset

SHIFTS = ("none", "empty", "zero", "shifted")  # beta=() with a_t 0, beta=() with a_t, all-zero beta, a shift


def reference_save(d: RPDataset, path) -> None:
    """The file written from the block objects: every probe's fields, every play's samples."""
    doc = {
        "T": d.T,
        "M": d.M,
        "k": d.k,
        "constraints": [
            [
                {"kind": "affine", "alpha": list(f.alpha), "b": f.b, "a_t": f.a_t, "beta": list(f.beta)}
                for f in row
            ]
            for row in d.constraints
        ],
        "strategies": [[{"samples": s.samples.tolist()} for s in row] for row in d.strategies],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


@st.composite
def block_datasets(draw):
    """A dataset built from blocks: ragged counts, signed zeros, and every way to hold a shift."""
    T, M, k = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ragged = draw(st.booleans())
    counts = rng.integers(1, 5, size=(T, M)) if ragged else np.full((T, M), draw(st.integers(1, 4)))
    cons, strats = [], []
    for t in range(T):
        crow, srow = [], []
        for i in range(M):
            alpha = rng.uniform(0.1, 3.0, size=k)
            alpha[rng.random(k) < 0.2] = -0.0  # a zero price, with its sign bit set
            x = rng.uniform(0.0, 2.0, size=(counts[t, i], k))
            x[rng.random(x.shape) < 0.3] = -0.0
            shift = draw(st.sampled_from(SHIFTS))
            a_t = {"none": 0.0, "empty": draw(st.sampled_from([-0.0, 0.5])), "zero": -0.0}.get(shift, 0.25)
            beta = {"none": (), "empty": (), "zero": (0.0,) * k}.get(shift, tuple(rng.uniform(0.0, 1.0, size=k)))
            level = float(((x - a_t * np.array(beta or (0.0,) * k)) @ alpha).max())
            b = -0.0 if level <= 0.0 and draw(st.booleans()) else level + float(rng.uniform(0.0, 1.0))
            crow.append(ConstraintFunction(tuple(alpha), b, a_t, beta))
            srow.append(EmpiricalStrategy(x))
        cons.append(crow)
        strats.append(srow)
    return RPDataset(cons, strats)


def _collected(seed, T, N, jitter):
    g = RiverPollutionGame(np.full(7, 0.5))
    return collect_dataset(g, river_probes(g, T, seed=seed), N=N, jitter=jitter, seed=seed)


def _generated(kind, seed, T, M, k):
    if kind == "consistent":
        return consistent_dataset(T, M, k, seed=seed)
    if kind == "violating":
        return violating_dataset(max(T, 2), M, max(k, 2), seed=seed)
    return dro_instance(T, M, k, jitter=0.05, seed=seed)  # k stands for N here


def assert_period_major(d: RPDataset) -> None:
    assert d.X.shape[:2] == d.n.shape == (d.T, d.M) and d.X.shape[3] == d.k
    c = d.X.shape[2]
    assert c == d.n.max()
    zero = np.zeros(d.k).tobytes()
    for s in range(d.T):
        for i in range(d.M):
            m = d.n[s, i]
            assert d.X[s, i, :m].tobytes() == d.strategies[s][i].samples.tobytes()
            assert all(d.X[s, i, j].tobytes() == zero for j in range(m, c))  # +0.0, never -0.0


SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(d=block_datasets())
def test_a_block_built_dataset_is_period_major(d):
    assert_period_major(d)


@SETTINGS
@given(d=block_datasets())
def test_a_loaded_file_is_period_major(tmp_path, d):
    path = tmp_path / "d.json"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert_period_major(loaded)
    assert loaded.X.tobytes() == d.X.tobytes() and loaded.n.tobytes() == d.n.tobytes()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    T=st.integers(1, 4),
    N=st.integers(1, 4),
    jitter=st.sampled_from([0.0, 0.5, 5.0]),
)
def test_a_collected_dataset_is_period_major(seed, T, N, jitter):
    assert_period_major(_collected(seed, T, N, jitter))


@SETTINGS
@given(
    kind=st.sampled_from(["consistent", "violating", "dro"]),
    seed=st.integers(0, 2**63 - 1),
    T=st.integers(1, 6),
    M=st.integers(1, 4),
    k=st.integers(1, 5),
)
def test_a_generated_dataset_is_period_major(kind, seed, T, M, k):
    assert_period_major(_generated(kind, seed, T, M, k))


@SETTINGS
@given(d=block_datasets())
def test_save_dataset_writes_the_block_reference_bytes(tmp_path, d):
    path, ref = tmp_path / "d.json", tmp_path / "ref.json"
    save_dataset(d, path)
    reference_save(d, ref)
    assert path.read_bytes() == ref.read_bytes()
    # and so do the datasets built from arrays, whose blocks are built only for the reference
    loaded = load_dataset(path)
    save_dataset(loaded, path)
    assert path.read_bytes() == ref.read_bytes()


def test_the_file_check_covers_empty_and_all_zero_beta_and_signed_zeros(tmp_path):
    cons = (
        (ConstraintFunction((1.0, -0.0), 1.0, 0.5), ConstraintFunction((2.0, 1.0), -0.0, -0.0, (0.0, 0.0))),
        (ConstraintFunction((1.0, 1.0), 2.0, 0.25, (1.0, 0.0)), ConstraintFunction((1.0, 2.0), 1.0)),
    )
    strats = (
        (EmpiricalStrategy([[0.5, -0.0], [0.0, 3.0]]), EmpiricalStrategy([[-0.0, -0.0]])),
        (EmpiricalStrategy([[1.0, 0.5]]), EmpiricalStrategy([[0.25, 0.25], [0.5, 0.0], [1.0, 0.0]])),
    )
    d = RPDataset(cons, strats)
    path, ref = tmp_path / "d.json", tmp_path / "ref.json"
    save_dataset(d, path)
    reference_save(d, ref)
    assert path.read_bytes() == ref.read_bytes()
    doc = json.loads(path.read_text())
    assert [[o["beta"] for o in row] for row in doc["constraints"]] == [[[], [0.0, 0.0]], [[1.0, 0.0], []]]
    assert '"alpha": [1.0, -0.0]' in path.read_text() and '"b": -0.0, "a_t": -0.0' in path.read_text()
    assert [[len(o["samples"]) for o in row] for row in doc["strategies"]] == [[2, 1], [1, 3]]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), T=st.integers(1, 3), N=st.integers(1, 3))
def test_a_collected_dataset_saves_as_the_block_reference(tmp_path_factory, seed, T, N):
    tmp = tmp_path_factory.mktemp("collected")
    d = _collected(seed, T, N, 0.5)
    save_dataset(d, tmp / "d.json")
    reference_save(d, tmp / "ref.json")
    assert (tmp / "d.json").read_bytes() == (tmp / "ref.json").read_bytes()
