import numpy as np
import pytest

from relaxtik import pipeline


@pytest.mark.parametrize("kind", ["bogus", "rgb", ""])
def test_to_sphere_rejects_an_unknown_kind(kind):
    with pytest.raises(ValueError, match="unknown data kind"):
        pipeline.to_sphere(kind, np.ones((2, 2)))
