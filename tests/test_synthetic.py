"""Unit tests for the synthetic dataset generators."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import synthetic
from pareto_forge.core import ConstraintFunction, EmpiricalStrategy, RPDataset, save_dataset
from pareto_forge.synthetic import consistent_dataset, dro_instance, violating_dataset

# --- the block-built reference ----------------------------------------------------
# The generators build their datasets from arrays; the references below build every
# block object, one draw and one constructor per (t, i), as the generators once did.


def _affine(alpha, b) -> ConstraintFunction:
    return ConstraintFunction(tuple(float(a) for a in np.atleast_1d(alpha)), float(b))


def _reversal_pair(k: int, rng) -> tuple[list[ConstraintFunction], list[EmpiricalStrategy]]:
    """Two budget-exhausting observations forming a strict preference cycle."""
    scale = rng.uniform(0.5, 2.0)
    depth = rng.uniform(0.2, 0.8)  # cross-budget slack, drives the gap size
    a1 = np.full(k, 0.1)
    a2 = np.full(k, 0.1)
    a1[0], a1[1] = 2.0, 1.0
    a2[0], a2[1] = 1.0, 2.0
    x1 = np.zeros(k)
    x2 = np.zeros(k)
    x1[0] = scale * (1 - depth) / 2.0  # cheap under budget 2: costs scale*(1-depth)
    x2[1] = scale * (1 - depth) / 2.0
    b1 = float(a1 @ x1)
    b2 = float(a2 @ x2)
    return (
        [_affine(a1, b1), _affine(a2, b2)],
        [EmpiricalStrategy(x1[None, :]), EmpiricalStrategy(x2[None, :])],
    )


def _consistent_rows_serial(T, M, k, seed):
    """The per-block reference: one draw and one demand call per (t, i), in stream order."""
    rng = np.random.default_rng(seed)
    cons, strats = [], []
    expos = [rng.uniform(0.5, 2.0, size=k) for _ in range(M)]
    for _t in range(T):
        row_c, row_s = [], []
        for i in range(M):
            alpha = rng.uniform(0.5, 2.0, size=k)
            b = rng.uniform(0.5, 2.0)
            x = expos[i] * b / (alpha * expos[i].sum())
            row_c.append(_affine(alpha, b))
            row_s.append(EmpiricalStrategy(x[None, :]))
        cons.append(row_c)
        strats.append(row_s)
    return cons, strats


def _serial_dataset(generator, T, M, k, seed):
    cons, strats = _consistent_rows_serial(T, M, k, seed)
    if generator is violating_dataset:
        pair_c, pair_s = _reversal_pair(k, np.random.default_rng(seed + 1))
        cons[0][0], cons[1][0] = pair_c
        strats[0][0], strats[1][0] = pair_s
    return RPDataset(cons, strats)


def _assert_same_dataset(d, ref):
    assert d.constraints == ref.constraints
    for row, ref_row in zip(d.strategies, ref.strategies):
        for s, r in zip(row, ref_row):
            assert s.samples.tobytes() == r.samples.tobytes()
    assert d.gbar.tobytes() == ref.gbar.tobytes()


def _violating_from_backbone(T, M, k, seed):
    """violating_dataset built the long way: a full consistent dataset, then the reversal."""
    base = consistent_dataset(T, M, k, seed=seed)
    cons = [list(row) for row in base.constraints]
    strats = [list(row) for row in base.strategies]
    pair_c, pair_s = _reversal_pair(k, np.random.default_rng(seed + 1))
    cons[0][0], cons[1][0] = pair_c
    strats[0][0], strats[1][0] = pair_s
    return RPDataset(cons, strats)


@pytest.mark.parametrize("T", [2, 3, 8, 14])
def test_violating_dataset_keeps_the_backbone_stream(T):
    for seed in range(50):
        d = violating_dataset(T, 3, 3, seed=seed)
        ref = _violating_from_backbone(T, 3, 3, seed)
        assert d.constraints == ref.constraints
        for row, ref_row in zip(d.strategies, ref.strategies):
            for s, r in zip(row, ref_row):
                assert np.array_equal(s.samples, r.samples)
        assert np.array_equal(d.gbar, ref.gbar)


def test_violating_dataset_builds_one_dataset(monkeypatch):
    built = []
    init = RPDataset.__post_init__
    monkeypatch.setattr(RPDataset, "__post_init__", lambda self: built.append(1) or init(self))
    violating_dataset(8, 3, 3, seed=0)
    assert len(built) == 1


@settings(max_examples=60, deadline=None)
@given(
    generator=st.sampled_from([consistent_dataset, violating_dataset]),
    T=st.integers(1, 14),
    M=st.integers(1, 4),
    k=st.integers(1, 9),
    seed=st.integers(0, 2**63 - 1),
)
def test_whole_grid_draw_matches_the_per_block_loop(generator, T, M, k, seed):
    if generator is violating_dataset:
        T, k = max(T, 2), max(k, 2)
    _assert_same_dataset(generator(T, M, k, seed=seed), _serial_dataset(generator, T, M, k, seed))


def _count_constructions(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for cls in (ConstraintFunction, EmpiricalStrategy, RPDataset):
        post = cls.__post_init__

        def counted(self, _post=post, _name=cls.__name__):
            counts[_name] += 1
            return _post(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


@pytest.mark.parametrize(
    "generate",
    [
        lambda: consistent_dataset(8, 3, 3, seed=0),
        lambda: violating_dataset(8, 3, 3, seed=0),
        lambda: dro_instance(5, 3, 5, 0.05, seed=0),
    ],
    ids=["consistent", "violating", "dro"],
)
def test_a_generator_and_its_file_build_one_dataset_and_no_block(tmp_path, monkeypatch, generate):
    # each built 2·T·M block objects for RPDataset to decode, and save_dataset built them again
    counts = _count_constructions(monkeypatch)
    d = generate()
    assert counts == {"RPDataset": 1}
    save_dataset(d, tmp_path / "d.json")
    assert counts == {"RPDataset": 1}
    assert "constraints" not in vars(d) and "strategies" not in vars(d)

def test_demand_of_a_grid_rounds_as_one_call_per_row():
    rng = np.random.default_rng(3)
    expo = rng.uniform(0.5, 2.0, size=(4, 9))
    alpha = rng.uniform(0.5, 2.0, size=(6, 4, 9))
    b = rng.uniform(0.5, 2.0, size=(6, 4))
    X = synthetic.cobb_douglas_demand(expo, alpha, b[..., None])
    for t in range(6):
        for i in range(4):
            ref = synthetic.cobb_douglas_demand(expo[i], alpha[t, i], b[t, i])
            assert X[t, i].tobytes() == ref.tobytes()


def _no_draw(seed):
    pytest.fail("drew from the random stream")


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((-1, 3, 3), "T must be >= 1, got -1"),
        ((3, 0, 3), "M must be >= 1, got 0"),
        ((3, 2, 0), "k must be >= 1, got 0"),
    ],
)
def test_consistent_dataset_rejects_sizes_below_one_before_any_draw(monkeypatch, sizes, message):
    monkeypatch.setattr(synthetic.np.random, "default_rng", _no_draw)
    with pytest.raises(ValueError, match=f"^{message}$"):
        consistent_dataset(*sizes)


@pytest.mark.parametrize("M", [0, -2])
def test_violating_dataset_rejects_m_below_one_before_any_draw(monkeypatch, M):
    # T and k below 2 it names itself
    monkeypatch.setattr(synthetic.np.random, "default_rng", _no_draw)
    with pytest.raises(ValueError, match=f"^M must be >= 1, got {M}$"):
        violating_dataset(3, M, 3)


def test_save_dataset_matches_the_json_dump_reference(tmp_path):
    # a shifted probe and N = 3 samples, beside a plain violating dataset
    d = violating_dataset(3, 2, 3, seed=5)
    cons = [list(row) for row in d.constraints]
    cons[2][1] = cons[2][1].shifted(0.25, (0.0, 0.0, 0.0))
    strats = [list(row) for row in d.strategies]
    x = strats[2][1].samples[0]
    strats[2][1] = EmpiricalStrategy(np.stack([x, 0.5 * x, 0.25 * x]))
    for data in (d, RPDataset(cons, strats)):
        doc = {
            "T": data.T,
            "M": data.M,
            "k": data.k,
            "constraints": [
                [
                    {
                        "kind": "affine",
                        "alpha": list(f.alpha),
                        "b": f.b,
                        "a_t": f.a_t,
                        "beta": list(f.beta),
                    }
                    for f in row
                ]
                for row in data.constraints
            ],
            "strategies": [
                [{"samples": s.samples.tolist()} for s in row] for row in data.strategies
            ],
        }
        ref = tmp_path / "ref.json"
        with open(ref, "w") as fh:
            json.dump(doc, fh)
        path = tmp_path / "d.json"
        save_dataset(data, path)
        assert path.read_bytes() == ref.read_bytes()
    assert '"a_t": 0.25' in path.read_text()


# sha256 of save_dataset(violating_dataset(T, 3, 3, seed=s)), the benchmark's audit
# inputs: any drift in the stream, the demand rounding or the file format fails here
PINNED_SHA256 = {
    (8, 0): "47f190dde7ce32c56c21556ebc0d16420dbff4d3bcf3b2991404fd4e0f3374c8",
    (8, 1): "dcc0ca90b12939752c244a935c7dca13873af158228d94e7d6adbc1f7267e77f",
    (8, 2): "71576e9cab930157b700592e852a7e096db7ec95f2cbb835c9bdefd873ca7e73",
    (8, 3): "c251d0493a90afe37923e7b4891efc2288ce1a2a4acd449049473b8a325217ff",
    (8, 4): "5f065e714bc4fd8ba5b34d836bbe41142d1a562bef78db2836084a3ace111efc",
    (14, 0): "7c7c5c34140c211ac57d5cce3a3f27425f484df5c39b87b813e555185bf014b1",
    (14, 1): "c844ebaa094252c8594890bdfffe48011ace070445eabfeea76df8ea8784a8b7",
    (14, 2): "7866c22abcc41dcc272bfe4536dcfc1f25a018b475482774bed449c032af8080",
    (14, 3): "3535ae3f978e38e3a5b65118e1a87bba69c3eae912c04a3fb0219ac539d3f925",
    (14, 4): "d7d11be4cb8ba2ab42442acfe8e5266aa739baa39a07681ad863d9aadd9a719f",
}


@pytest.mark.parametrize("T, seed", sorted(PINNED_SHA256))
def test_audit_input_files_are_pinned(tmp_path, T, seed):
    path = tmp_path / "d.json"
    save_dataset(violating_dataset(T, 3, 3, seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[T, seed]


def _dro_instance_serial(T, M, N, jitter, seed):
    """The per-block reference: one price draw and one jitter draw per (t, i), in stream order."""
    rng = np.random.default_rng(seed)
    powers = [(1.0, 1.0), (1.0, 0.25), (0.25, 1.0)]
    cons, strats = [], []
    for _t in range(T):
        row_c, row_s = [], []
        for i in range(M):
            alpha = rng.uniform(0.1, 1.1, size=2)
            x = synthetic._power_utility_argmax(*powers[i % 3], alpha)
            pts = np.clip(x[None, :] + rng.uniform(-jitter, jitter, size=(N, 2)), 0.0, None)
            load = pts @ alpha
            over = load > 1.0
            if over.any():
                pts[over] /= load[over][:, None]
            row_c.append(_affine(alpha, 1.0))
            row_s.append(EmpiricalStrategy(pts))
        cons.append(row_c)
        strats.append(row_s)
    return RPDataset(cons, strats)


@settings(max_examples=60, deadline=None)
@given(
    T=st.integers(1, 8),
    M=st.integers(1, 4),
    N=st.integers(1, 8),
    jitter=st.sampled_from([0.0, 0.05, 0.3, 2.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**63 - 1),
)
def test_dro_instance_matches_the_per_block_loop(T, M, N, jitter, seed):
    _assert_same_dataset(dro_instance(T, M, N, jitter, seed=seed), _dro_instance_serial(T, M, N, jitter, seed))


@pytest.mark.parametrize("jitter", [-0.05, float("nan"), float("inf")])
def test_dro_instance_rejects_a_jitter_that_is_not_a_finite_non_negative_number(jitter):
    with pytest.raises(ValueError, match="jitter must be a finite number >= 0"):
        dro_instance(3, 2, 2, jitter, seed=0)


@pytest.mark.parametrize(
    "sizes, message",
    [((0, 3, 5), "T must be >= 1, got 0"), ((5, -1, 5), "M must be >= 1, got -1"), ((5, 3, 0), "N must be >= 1, got 0")],
)
def test_dro_instance_rejects_sizes_below_one_before_any_draw(monkeypatch, sizes, message):
    # from arrays, T = 0 would build an empty dataset and N = 0 fail on numpy's reshape error
    monkeypatch.setattr(synthetic.np.random, "default_rng", _no_draw)
    with pytest.raises(ValueError, match=f"^{message}$"):
        dro_instance(*sizes)

# sha256 of save_dataset(dro_instance(5, 3, 5, 0.05, seed=s)), the benchmark's dro
# instance: any drift in the stream, the projection or the file format fails here
DRO_PINNED_SHA256 = {
    0: "b66f536f0a62b31c8842fbe6d803ca074c561fe24ab2121049c0af5ac6e65f73",
    1: "31228be67a251f349e6280ac88999beaa395c421066cfdcafe8f504aef14ec2e",
    2: "bcfd1ba32daa93ed8f5689b1ba2094a62c2dbcb184fff1ba861396d497a4f634",
    3: "27bd5348865aa4701b95a8ace54bc6bee652934c9a54e20590fbdfb3c79a88c2",
    4: "79b270bac1be3086906e06aa78453a04567faa532437268e26a07469ce09c616",
}


@pytest.mark.parametrize("seed", sorted(DRO_PINNED_SHA256))
def test_dro_instance_files_are_pinned(tmp_path, seed):
    path = tmp_path / "d.json"
    save_dataset(dro_instance(5, 3, 5, 0.05, seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DRO_PINNED_SHA256[seed]
