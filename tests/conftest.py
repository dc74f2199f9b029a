import json

import numpy as np
import pytest
from _pytest.mark.structures import ParameterSet

from semiflow import TrigPolynomial, ValidationError
from semiflow.cli import parse_config


@pytest.fixture(scope="session")
def f_const():
    """f = 1, ell = 2: every branch slope is zero."""
    return TrigPolynomial(1.0, (), 2)


@pytest.fixture(scope="session")
def f_const3():
    """f = 1.3, ell = 3."""
    return TrigPolynomial(1.3, (), 3)


@pytest.fixture(scope="session")
def f_sin():
    """f = 1 + 0.2 sin(2 pi x): the weakly mixing workhorse."""
    return TrigPolynomial(1.0, ((1, 0.0, 0.2),), 2)


@pytest.fixture(scope="session")
def f_cob():
    """Coboundary ceiling: f = 1 + 0.05 (sin 4 pi x - sin 2 pi x), i.e.
    f = Psi o tau - Psi + 1 with Psi = 0.05 sin(2 pi x)."""
    return TrigPolynomial(1.0, ((1, 0.0, -0.05), (2, 0.0, 0.05)), 2)


@pytest.fixture(scope="session")
def f_cob2():
    """Second coboundary: Psi = 0.04 sin(4 pi x), so
    f = 1 + 0.04 (sin 8 pi x - sin 4 pi x)."""
    return TrigPolynomial(1.0, ((2, 0.0, -0.04), (4, 0.0, 0.04)), 2)


@pytest.fixture(scope="session")
def f_generic():
    """Two-harmonic generic ceiling."""
    return TrigPolynomial(1.0, ((1, 0.0, 0.3), (2, 0.1, 0.0)), 2)


def parse_violations(**config) -> str:
    """The violations ``parse_config`` reports for a config (which must have
    some), joined by "; "."""
    with pytest.raises(ValidationError) as info:
        parse_config(json.dumps(config))
    return str(info.value)


def random_positive_ceiling(rng) -> TrigPolynomial:
    """A random strictly positive trig polynomial (sum of harmonic
    amplitudes kept below half the mean)."""
    ell = int(rng.choice([2, 3]))
    mean = float(rng.uniform(0.9, 1.4))
    n_harm = int(rng.integers(1, 3))
    ks = rng.choice(np.arange(1, 5), size=n_harm, replace=False)
    budget = 0.4 * mean
    harmonics = []
    for k in sorted(int(k) for k in ks):
        c = float(rng.uniform(-1, 1))
        s = float(rng.uniform(-1, 1))
        scale = budget / (n_harm * (abs(c) + abs(s) + 1e-9))
        harmonics.append((k, c * scale, s * scale))
    return TrigPolynomial(mean, tuple(harmonics), ell)


def _values(case, names) -> tuple:
    """The values of one entry of a parametrize list."""
    if isinstance(case, ParameterSet):
        return case.values
    return tuple(case) if len(names) > 1 else (case,)


def _numbered(item) -> bool:
    """Whether pytest numbered one of the item's cases: a case given no id
    whose values are not all plain scalars takes its argument names and its
    position, such as ``argv3``, so deleting one case renames every later one.
    An id written out, whatever it reads, stays put."""
    for mark in item.iter_markers("parametrize"):
        names, cases = mark.args[:2]
        if isinstance(names, str):
            names = [name.strip() for name in names.split(",")]
        values = [item.callspec.params[name] for name in names]
        ids = mark.kwargs.get("ids")
        index, case = next((index, case) for index, case in enumerate(cases)
                           if all(a is b for a, b in zip(_values(case, names), values)))
        if callable(ids) or (ids is not None and ids[index] is not None) or (
                isinstance(case, ParameterSet) and case.id is not None):
            continue
        if not all(isinstance(value, (str, int, float, bool, type(None))) for value in values):
            return True
    return False


def pytest_collection_modifyitems(items):
    """Refuse a pytest-numbered id in any test module."""
    numbered = [item.nodeid for item in items if hasattr(item, "callspec") and _numbered(item)]
    if numbered:
        raise pytest.UsageError("pytest-numbered ids: " + ", ".join(numbered))
