import pytest

from elemcalc.rings import PolyRing, RingElement, ZmodRing


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


@pytest.fixture
def zmod_mul_budget(monkeypatch):
    """A one-item list: how many more ZmodRing.p_mul calls are allowed
    (none at first). Each call spends one, and the call that finds the
    budget spent raises, so an algorithm of too high an order fails at
    once instead of running on."""
    left = [0]
    orig = ZmodRing.p_mul

    def counting(self, a, b):
        if left[0] <= 0:
            raise AssertionError("ZmodRing.p_mul budget spent")
        left[0] -= 1
        return orig(self, a, b)

    monkeypatch.setattr(ZmodRing, "p_mul", counting)
    return left


@pytest.fixture
def ring_element_count(monkeypatch):
    """A list whose length is the number of RingElement constructions so
    far; clear it to restart the count."""
    built = []
    orig = RingElement.__init__

    def counting(self, ring, payload):
        built.append(None)
        orig(self, ring, payload)

    monkeypatch.setattr(RingElement, "__init__", counting)
    return built
