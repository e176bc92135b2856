import os

import pytest
from hypothesis import HealthCheck, settings

from flowfit import interp

settings.register_profile(
    "ci",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.register_profile("fast", max_examples=15, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture
def affine_solves(monkeypatch):
    """The sizes of the affine systems `interp.min_norm_point` solves; after
    1000 of them it fails instead of running on."""
    solves = []
    real = interp._affine_weights

    def counted(pts):
        solves.append(pts.shape[0])
        assert len(solves) <= 1000, "no end after 1000 affine solves"
        return real(pts)

    monkeypatch.setattr(interp, "_affine_weights", counted)
    return solves
