import random
from fractions import Fraction

import pytest
from hypothesis import settings

from danielewski import UniPoly, make_surface

# Every run draws the same examples (seeded from each test, no example
# database), so the suite's wall time compares between two versions of the
# code; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def upoly(coeffs: dict) -> UniPoly:
    return UniPoly({e: Fraction(v) for e, v in coeffs.items()})


P_QUAD = upoly({2: 1, 0: -1})          # z^2 - 1
P_CUBIC = upoly({3: 1, 1: -1})         # z^3 - z
P_QUARTIC = upoly({4: 1, 2: -2, 1: 1, 0: 1})   # z^4 - 2z^2 + z + 1
P_QUARTIC2 = upoly({4: 1, 1: -1})      # z^4 - z


@pytest.fixture(autouse=True)
def _no_format_from_the_environment(monkeypatch):
    """The CLI's default format comes from DANIELEWSKI_FORMAT; no test reads
    the caller's.  A test that wants it sets it with ``monkeypatch``."""
    monkeypatch.delenv("DANIELEWSKI_FORMAT", raising=False)


@pytest.fixture(scope="session")
def quad():
    return make_surface(P_QUAD)


@pytest.fixture(scope="session")
def cubic():
    return make_surface(P_CUBIC)


@pytest.fixture(scope="session")
def quartic():
    return make_surface(P_QUARTIC)


def random_surface_polynomial(surface, rng: random.Random, max_deg: int = 6,
                              n_terms: int = 6):
    """Random element in normal form, total degree bounded by max_deg."""
    out = surface.zero()
    for _ in range(n_terms):
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if v == 0:
            continue
        kind = rng.choice(("x", "y", "z"))
        if kind == "z":
            out = out + surface.from_unipoly(
                UniPoly.monomial(rng.randint(0, max_deg), v))
        else:
            i = rng.randint(1, max(1, max_deg - 1))
            j = rng.randint(0, max(0, max_deg - i))
            out = out + (surface.x(i, j, v) if kind == "x" else surface.y(i, j, v))
    return out


def random_unipoly(rng: random.Random, max_deg: int = 6) -> UniPoly:
    return UniPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for e in range(rng.randint(1, max_deg + 1))})
