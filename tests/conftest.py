import gc

import numpy as np
import pytest

from hardylab.expr import parse
from hardylab.kernels import KernelSpec, Scenario
from hardylab.weights import isotropic


def hardy_scenario(p=2.0, d=1):
    kernel = KernelSpec(m=1, n=1, psi=parse("1", 1), s=(parse("t1", 1),), beta=1.0)
    return Scenario(d=d, kernel=kernel, weights=(isotropic(d, 0.0),), p=(p,))


def diagonal_scenario(p=(4, 4), d=1, lam=None, q=None):
    m = len(p)
    kernel = KernelSpec(
        m=m, n=m, psi=parse("1", m),
        s=tuple(parse(f"t{k+1}", m) for k in range(m)), beta=1.0,
    )
    return Scenario(d=d, kernel=kernel, weights=tuple(isotropic(d, 0.0) for _ in p),
                    p=tuple(p), q=tuple(q or ()), lam=tuple(lam or ()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_reference_cycles():
    """Collect, then run the test with the collector disabled, and assert
    that it left no garbage for the collector: an exception raised again
    whose traceback passes a frame that still holds it closes a reference
    cycle, and the frames and the arrays they hold wait for a collection."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()
