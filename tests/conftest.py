import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from matmean.linalg import HermitianMatrix, PDMatrix, haar_unitaries, random_pd, random_pd_from_rng
from matmean.suite import (
    SuiteConfig,
    _commuting_sample,
    _pinching_weight_sample,
    _rank_deficient_sample,
    _scaled_under,
    _trial_start,
)

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rand_pd(dim: int, seed: int, cond: float = 1e3) -> PDMatrix:
    return random_pd(dim, cond, seed)


def rand_pd_pairs(count: int, dims=(1, 2, 3, 4, 5, 6, 7, 8), cond: float = 1e3, seed: int = 0):
    """Deterministic stream of (dim, A, B) triples."""
    for i in range(count):
        dim = dims[i % len(dims)]
        yield dim, rand_pd(dim, 1000 * seed + 2 * i, cond), rand_pd(dim, 1000 * seed + 2 * i + 1, cond)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# The suite's instance stream drawn one instance at a time, each built from
# its sample with the single-matrix functions: the reference that
# `suite._draw_trial`, which draws a trial as one stacked segment, is
# compared against bit for bit.

def _commuting_pair(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    """A pair sharing a random eigenbasis commutes by construction."""
    gaussian, spectra = _commuting_sample(dim, cond_max, rng)
    U = haar_unitaries(gaussian)
    A, B = (PDMatrix._from_eig(vals, U[:, order].copy()) for vals, order in spectra)
    return A, B


def _pinching_operands(dim: int, cond_max: float, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    C = random_pd_from_rng(dim, cond_max, rng)
    vals, gaussian = _pinching_weight_sample(dim, rng)
    return C, PDMatrix._from_eig(vals, haar_unitaries(gaussian))


def _rank_deficient_psd(dim: int, rng: np.random.Generator) -> HermitianMatrix:
    vals, gaussian = _rank_deficient_sample(dim, rng)
    U = haar_unitaries(gaussian)
    return HermitianMatrix((U * vals) @ U.conj().T)


def _shrunk_dominated(C: PDMatrix, rng: np.random.Generator) -> np.ndarray:
    """Random D with lambda(D) prec_w lambda(C), enforced by scaling."""
    return _scaled_under(C, random_pd_from_rng(C.dim, 100.0, rng))


def iter_instances(config: SuiteConfig):
    """The deterministic randomized instance stream of the suite, one draw
    at a time: yields (offset, rng, dim, a, b, A, B)."""
    for offset in range(config.trials):
        rng, dim, (a, b) = _trial_start(config, offset)
        A = random_pd_from_rng(dim, config.cond_max, rng)
        B = random_pd_from_rng(dim, config.cond_max, rng)
        yield offset, rng, dim, a, b, A, B
