import numpy as np
import pytest

from rspb.augustin import _solution
from rspb.measures import DiscreteChannel, FiniteDist, uniform_dist
from rspb.symmetric import symmetric_center


def random_dist(rng, size, floor=1e-9):
    masses = rng.dirichlet(np.ones(size))
    masses = np.clip(masses, floor, None)
    return FiniteDist(masses / masses.sum())


def random_channel(rng, n_in, n_out, floor=1e-9):
    return DiscreteChannel(tuple(random_dist(rng, n_out, floor) for _ in range(n_in)))


def channel_with_zeros(rng) -> DiscreteChannel:
    """A random 2-8 x 2-16 channel with about 30 % exact zeros."""
    n_in, n_out = int(rng.integers(2, 9)), int(rng.integers(2, 17))
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[np.arange(n_in), rng.integers(0, n_out, size=n_in)] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    return DiscreteChannel(tuple(FiniteDist(r) for r in rows))


def _channel(rows):
    return DiscreteChannel(tuple(FiniteDist(r) for r in np.asarray(rows, dtype=float)))


CYCLIC4 = _channel([np.roll([0.7, 0.2, 0.06, 0.04], k) for k in range(4)])
# an erasure channel with an output no input reaches
DEAD_BEC = _channel([[0.7, 0.3, 0.0, 0.0], [0.0, 0.3, 0.7, 0.0]])


def symmetric_solution(rho, channel):
    """The solution of a uniform input at the power-mean center of order rho,
    as the symmetric solve forms each component's at its root."""
    center, _ = symmetric_center(rho, channel)
    return _solution(rho, uniform_dist(channel.input_size).masses, channel.row_matrix(),
                     channel.log_row_matrix(), center.masses, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
