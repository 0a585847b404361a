import pytest

from elemcalc.rings import PolyRing


@pytest.fixture
def poly_mul_calls(monkeypatch):
    """A list whose length is the number of PolyRing.p_mul calls so far;
    clear it to restart the count."""
    calls = []
    orig = PolyRing.p_mul

    def counting(self, a, b):
        calls.append(None)
        return orig(self, a, b)

    monkeypatch.setattr(PolyRing, "p_mul", counting)
    return calls
