"""Unit tests for the synthetic dataset generators."""

from __future__ import annotations

import numpy as np
import pytest

from pareto_forge.core import RPDataset
from pareto_forge.synthetic import _reversal_pair, consistent_dataset, violating_dataset


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
