import numpy as np
import pytest
from numpy.testing import assert_allclose

from metatx.reflection import SurfaceConfig


class TestSurfaceConfig:
    def test_magnitude_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SurfaceConfig(np.array([1.5]), np.array([0.0]))
        with pytest.raises(ValueError):
            SurfaceConfig(np.array([-0.1]), np.array([0.0]))

    def test_uniform_broadcast(self):
        alpha = np.array([0.2, 0.4, 0.6])
        cfg = SurfaceConfig.uniform(np.zeros(4), alpha)
        assert cfg.magnitudes.shape == (4, 3)
        assert_allclose(cfg.reflection_coefficients()[2], alpha)
