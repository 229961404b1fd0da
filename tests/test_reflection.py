import numpy as np
import pytest
from numpy.testing import assert_allclose

from metatx.reflection import SurfaceConfig


class TestSurfaceConfig:
    def test_magnitude_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SurfaceConfig(np.array([0.0]), np.array([1.5]))
        with pytest.raises(ValueError):
            SurfaceConfig(np.array([0.0]), np.array([-0.1]))

    def test_uniform_broadcast(self):
        # The state keeps the one series; only the dense reference spreads it.
        alpha = np.array([0.2, 0.4, 0.6])
        cfg = SurfaceConfig.uniform(np.zeros(4), alpha)
        assert cfg.magnitude.shape == (3,)
        assert cfg.reflection_coefficients().shape == (4, 3)
        assert_allclose(cfg.reflection_coefficients()[2], alpha)

    def test_one_shape_per_field(self):
        # one phase per element, one magnitude series shared by all of them
        with pytest.raises(ValueError, match="magnitude"):
            SurfaceConfig(np.zeros(4), np.full((4, 3), 0.5))
        with pytest.raises(ValueError, match="phases"):
            SurfaceConfig(np.zeros((4, 1)), np.full(3, 0.5))
