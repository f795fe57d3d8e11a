"""Shared fixtures and independent oracles used across the test modules.

The finite-difference Jacobian and the nested-loop residual deliberately
avoid the vectorized code paths under test; they are slow, obvious, and
serve as the ground truth the fast implementations are checked against.
"""

from __future__ import annotations

import numpy as np
import pytest

from momentpack import BoxSpec, gen_guillotine, squared_rectangle_32x33
from momentpack import moments as mo

# Boxes cycled through when building guillotine corpora; mixed aspect ratios
# so normalization (scale = max side) is exercised off the unit square.
CORPUS_BOXES = (
    BoxSpec(1.0, 1.0),
    BoxSpec(10.0, 7.0),
    BoxSpec(3.0, 8.0),
    BoxSpec(5.0, 5.0),
)


def guillotine_corpus(count: int, base_seed: int = 0, max_cuts: int = 20):
    """Deterministic list of (instance, layout) guillotine fixtures."""
    out = []
    for k in range(count):
        seed = base_seed + k
        box = CORPUS_BOXES[seed % len(CORPUS_BOXES)]
        out.append(gen_guillotine(seed, seed % max_cuts, box))
    return out


def fd_jacobian(sys: mo.MomentSystem, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the stacked residual."""
    x = np.asarray(x, dtype=float)
    m = sys.equation_count
    jac = np.empty((m, x.size))
    for j in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (
            mo.residual(sys, hi) - mo.residual(sys, lo)
        ) / (2 * step)
    return jac


@pytest.fixture(scope="session")
def squared32():
    return squared_rectangle_32x33()


@pytest.fixture(scope="session")
def small_corpus():
    return guillotine_corpus(8, base_seed=40, max_cuts=7)


@pytest.fixture(scope="session")
def fd_jac():
    return fd_jacobian


@pytest.fixture(scope="session")
def corpus_builder():
    return guillotine_corpus
