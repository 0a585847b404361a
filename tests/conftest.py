import pytest

from elemcalc import matrices
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


@pytest.fixture
def products(monkeypatch):
    """A one-item list: the coefficient products so far, counted as the
    CLI's work model counts them. A ZmodRing.p_mul call is one, a
    PolyRing.p_mul call one per pair of terms of its factors, a closed-
    form PolyRing.p_substitute one per term of its argument and bound
    variable that the term raises to a positive power (until one is
    bound to zero), a ZmodRing.p_column_op call one per row of its grid,
    and a row operation of the Z/m elimination (matrices._combine) one
    per entry of its rows."""
    count = [0]
    p_mul, column_op = ZmodRing.p_mul, ZmodRing.p_column_op
    poly_mul, substitute = PolyRing.p_mul, PolyRing.p_substitute
    combine = matrices._combine

    def counting_mul(self, a, b):
        count[0] += 1
        return p_mul(self, a, b)

    def counting_poly_mul(self, a, b):
        count[0] += len(a) * len(b)
        return poly_mul(self, a, b)

    def counting_substitute(self, a, bindings):
        out = substitute(self, a, bindings)
        if all(len(val) <= 1 for val in bindings.values()):
            bound = [(self.variables.index(name), val)
                     for name, val in bindings.items()]
            for exps in a:
                for pos, val in bound:
                    if exps[pos]:
                        if not val:
                            break
                        count[0] += 1
        return out

    def counting_column_op(self, grid, s, d, c):
        count[0] += len(grid)
        return column_op(self, grid, s, d, c)

    def counting_combine(m, s, r1, t, r2):
        count[0] += len(r1)
        return combine(m, s, r1, t, r2)

    monkeypatch.setattr(ZmodRing, "p_mul", counting_mul)
    monkeypatch.setattr(PolyRing, "p_mul", counting_poly_mul)
    monkeypatch.setattr(PolyRing, "p_substitute", counting_substitute)
    monkeypatch.setattr(ZmodRing, "p_column_op", counting_column_op)
    monkeypatch.setattr(matrices, "_combine", counting_combine)
    return count
