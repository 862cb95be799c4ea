import numpy as np
import pytest

from cipbench.vectors import ShapeDescriptor, mean_pool

from oracles import seq_mean


# ---------------------------------------------------------------------------
# mean pooling
# ---------------------------------------------------------------------------


def test_mean_pool_two_views():
    d = mean_pool([np.array([1.0, 0.0]), np.array([3.0, 0.0])])
    np.testing.assert_allclose(d.components, [2.0, 0.0])
    assert d.source_view_count == 2


def test_mean_pool_single_view_identity():
    v = np.array([0.4, -1.2, 7.0])
    d = mean_pool([v])
    np.testing.assert_array_equal(d.components, v)
    assert d.source_view_count == 1


def test_mean_pool_symmetric_cancellation():
    v = np.array([2.0, -3.0])
    np.testing.assert_allclose(mean_pool([v, -v]).components, [0.0, 0.0], atol=1e-15)


def test_mean_pool_empty_rejected():
    with pytest.raises(ValueError, match="at least one view"):
        mean_pool([])


def test_mean_pool_mixed_dims_rejected():
    with pytest.raises(ValueError, match="mixed dimensions"):
        mean_pool([np.ones(2), np.ones(3)])


def test_mean_pool_accumulation_tolerance():
    # descriptor must equal the sequential mean of its views very tightly
    rng = np.random.default_rng(3)
    views = [rng.standard_normal(8) * 10 for _ in range(50)]
    d = mean_pool(views)
    np.testing.assert_allclose(d.components, seq_mean(views), atol=1e-12 * len(views))


def test_mean_pool_minimizes_summed_squared_distance():
    # grid oracle: scan candidate descriptors on a 2-D lattice around the
    # views; none may beat the pooled mean
    views = [np.array([0.5, 1.0]), np.array([2.0, -1.0]), np.array([-1.0, 0.25])]
    pooled = mean_pool(views).components

    def objective(d):
        return sum(float(np.sum((v - d) ** 2)) for v in views)

    best = objective(pooled)
    for gx in np.linspace(-2.0, 2.5, 41):
        for gy in np.linspace(-1.5, 1.5, 41):
            assert objective(np.array([gx, gy])) >= best - 1e-9


def test_shape_descriptor_fields():
    d = ShapeDescriptor(np.array([1.0, 2.0]), 3)
    assert d.source_view_count == 3
    assert d.components.shape == (2,)
