"""Tests of the benchmark's scalar reference oracle.

Run from the repository root: ``python -m pytest benchmarks``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference  # noqa: E402

FIELD = reference.DEFAULT_FIELD
MERGE = reference.DEFAULT_MERGE


def _random_rels(rng, k):
    return [
        (
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            -rng.uniform(0.1, 1.4),
            rng.uniform(-0.8, 0.8),
            rng.uniform(-0.8, 0.8),
            rng.uniform(-0.8, 0.8),
        )
        for _ in range(k)
    ]


@pytest.mark.parametrize(
    "dz, f_d",
    [
        # e^(-0.8/3) = 0.7659283384, (1 + 0.05*0.8)^2 = 1.0816, 4 * 0.7659283384 / 1.0816
        (0.8, 2.832575216),
        # e^(-1.3/3) = 0.6483443410, (1 + 0.05*1.3)^2 = 1.134225, 4 * 0.6483443410 / 1.134225
        (1.3, 2.286475227),
    ],
)
def test_on_axis_column_matches_hand_value(dz, f_d):
    w = reference.column(0.0, 0.0, -dz, FIELD)
    assert w[2] == pytest.approx(f_d, rel=1e-9)
    assert [w[0], w[1], w[3], w[4], w[5]] == [0.0] * 5


def test_off_axis_column_matches_hand_value():
    # dn = 0.06, dz = 0.8: R = 0.12 * 1.04 = 0.1248, R^2 = 0.01557504,
    # g = exp(-0.0036 / 0.01557504) = 0.7936291017, f_d = 2.832575216 * g = 2.248014124,
    # t_pitch = -0.2 * f_d * 0.06 = -0.02697616949,
    # f_n = -0.1 * f_d * g * 0.06 / R = -0.08577353027.
    w = reference.column(0.06, 0.0, -0.8, FIELD)
    assert w[2] == pytest.approx(2.248014124, rel=1e-9)
    assert w[3] == pytest.approx(-0.02697616949, rel=1e-9)
    assert w[0] == pytest.approx(-0.08577353027, rel=1e-9)
    assert w[1] == 0.0 and w[4] == 0.0 and w[5] == 0.0


def test_neighbour_at_or_below_gives_zero_wrench():
    assert reference.column(0.1, 0.0, 0.2, FIELD) == [0.0] * 6
    assert reference.column(0.0, 0.0, 0.0, FIELD) == [0.0] * 6


def test_k1_merging_equals_additive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rels = _random_rels(rng, 1)
        assert reference.merging(rels, FIELD, MERGE) == reference.additive(rels, FIELD)


def test_vanishing_merge_radius_equals_additive():
    rng = np.random.default_rng(12)
    tiny = dict(MERGE, merge_radius=1e-12)
    for k in (2, 3, 4):
        rels = _random_rels(rng, k)
        assert reference.merging(rels, FIELD, tiny) == reference.additive(rels, FIELD)


def test_reference_agrees_with_package_oracle():
    from downwash.core import FormationSnapshot, VehicleState
    from downwash.field import DownwashParams, MergeParams, aggregate_merging

    params, merge = DownwashParams(**FIELD), MergeParams(**MERGE)
    sufferer = VehicleState(position=np.zeros(3), velocity=np.zeros(3))
    rng = np.random.default_rng(13)
    merged = 0
    for i in range(200):
        rels = _random_rels(rng, 1 + i % 4)
        snap = FormationSnapshot(
            sufferer, tuple(VehicleState(position=np.array(r[:3]), velocity=np.array(r[3:])) for r in rels)
        )
        ref = reference.merging(rels, FIELD, MERGE)
        merged += ref != reference.additive(rels, FIELD)
        assert reference.close(list(aggregate_merging(snap, params, merge).vec), ref)
    assert merged > 50  # the merging branch was exercised, not only singletons
