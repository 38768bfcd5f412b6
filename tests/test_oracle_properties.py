"""Property tests of the batch oracles, over random feature batches with K <= 4."""

import importlib.util
import math
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from downwash.core import canonical_order
from downwash.field import DownwashParams, MergeParams, additive_batch, merging_batch

_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "benchmarks" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

P = DownwashParams()
M = MergeParams()
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Unit draws mapped to dN, dE in [-1.5, 1.5], dD in [-1.6, 0.3] (some sources
# below the sufferer) and velocities in [-1, 1].
_SCALE = np.array([1.5, 1.5, 0.95, 1.0, 1.0, 1.0])
_SHIFT = np.array([0.0, 0.0, -0.65, 0.0, 0.0, 0.0])


def batches(min_k=1, max_k=4):
    """Feature batches in canonical order, as the feature builders hand them to the oracles."""
    shape = st.tuples(st.integers(1, 4), st.integers(min_k, max_k), st.just(6))
    unit = arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))
    return unit.map(lambda u: canonical_order(u * _SCALE + _SHIFT))


def lateral_distances(feats):
    diff = feats[:, :, None, :2] - feats[:, None, :, :2]
    return np.hypot(diff[..., 0], diff[..., 1])


def oracles(merge=M):
    return (lambda f: additive_batch(f, P), lambda f: merging_batch(f, P, merge))


@PROPERTY
@given(batches(), st.randoms(use_true_random=False))
def test_permutation_invariance_is_bitwise(feats, random):
    # the oracles rely on canonical order, which every feature batch gets on building
    perm = list(range(feats.shape[1]))
    random.shuffle(perm)
    for oracle in oracles():
        assert np.array_equal(oracle(feats), oracle(canonical_order(feats[:, perm])))


@PROPERTY
@given(batches(), st.floats(0.0, 2.0 * math.pi))
def test_rotation_about_d_rotates_the_wrench(feats, theta):
    # a link exactly at the merge radius may flip under rounding of the rotation
    assume(np.all(np.abs(lateral_distances(feats) - M.merge_radius) > 1e-9))
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    turned = feats.copy()
    turned[..., 0:2] = feats[..., 0:2] @ rot.T
    turned[..., 3:5] = feats[..., 3:5] @ rot.T
    for oracle in oracles():
        w0, w1 = oracle(feats), oracle(canonical_order(turned))
        np.testing.assert_allclose(w0[:, 0:2] @ rot.T, w1[:, 0:2], atol=1e-9)
        # (t_roll, t_pitch) rotates like (f_n, f_e)
        np.testing.assert_allclose(w0[:, [4, 3]] @ rot.T, w1[:, [4, 3]], atol=1e-9)
        np.testing.assert_allclose(w0[:, 2], w1[:, 2], rtol=1e-9)
        assert np.all(w1[:, 5] == 0.0)


@PROPERTY
@given(batches(max_k=1))
def test_k1_merging_equals_additive_bitwise(feats):
    assert np.array_equal(merging_batch(feats, P, M), additive_batch(feats, P))


@PROPERTY
@given(batches())
def test_vanishing_merge_radius_equals_additive(feats):
    tiny = MergeParams(merge_radius=1e-12, contraction_rate=M.contraction_rate, advect_gain=M.advect_gain)
    k = feats.shape[1]
    apart = lateral_distances(feats) + np.eye(k)  # the diagonal is each source's own distance
    assume(np.all(apart > 1e-9))
    assert np.array_equal(merging_batch(feats, P, tiny), additive_batch(feats, P))


@PROPERTY
@given(batches())
def test_each_row_equals_its_batch_of_one(feats):
    for oracle in oracles():
        whole = oracle(feats)
        for i in range(len(feats)):
            assert np.array_equal(whole[i], oracle(feats[i : i + 1])[0])


@PROPERTY
@given(st.floats(0.1, 0.59), st.floats(0.1, 0.59), st.floats(-0.8, -0.2), st.floats(0.0, 1.0))
def test_single_linkage_chain_is_one_cluster(ab, bc, north, speed):
    # A-B and B-C closer than merge_radius, A-C not.  B sits last in
    # canonical order (highest dD), so its label must pass from A to C over
    # two rounds of propagation.
    assume(ab + bc > M.merge_radius + 1e-9)
    a = (north, 0.0, -1.0, 0.0, speed, 0.0)
    b = (north + ab, 0.0, -0.8, 0.0, speed, 0.0)
    c = (north + ab + bc, 0.0, -0.9, 0.0, speed, 0.0)
    field, merge = vars(P), vars(M)
    got = list(merging_batch(canonical_order(np.array([[a, b, c]])), P, M)[0])
    assert reference.close(got, reference.merging([a, b, c], field, merge), rel=1e-12)
    split = [x + y for x, y in zip(reference.merging([a, b], field, merge), reference.additive([c], field))]
    assert not reference.close(got, split, rel=1e-6)
