"""Reference implementations the tests compare the library against, and a
drift that exercises them.

Each oracle evaluates a quantity straight from its definition, pair by pair
or solve by solve, where the library uses a vectorized or factored route.
"""

import numpy as np

from driftform import tower as tw
from driftform.resistance import energy, harmonic_extension

# Two drift terms, one with a varying coefficient field; the L4 generator
# of SG has a complex spectrum.
TWO_TERM_DRIFT = tw.DriftConfig(
    (("expression", "0.3*sin(7*x)*cos(5*y)"), ("constant", 0.1)),
    ((0, (1.0, 0.0, 0.0)), (0, (0.0, 1.0, -1.0))),
)


def eta(net, drift, x: int, y: int) -> float:
    """Asymmetric edge weight ``1/2 * sum_i b_i(x) (h_i(x) - h_i(y))`` of one
    ordered vertex pair."""
    px, py = net.positions([x, y])
    return 0.5 * float(np.dot(drift.b[:, px], drift.h[:, px] - drift.h[:, py]))


def discrete_mutual_energy(net, h, h2, g) -> float:
    """Weighted pairing ``sum_{x != y} c_xy g(x) (h(x)-h(y)) (h2(x)-h2(y))``.

    No 1/2 factor: with ``g == 1`` and ``h == h2`` this is twice the energy.
    """
    hv, h2v, gv = (np.asarray(v, dtype=float) for v in (h, h2, g))
    coo = net.c.tocoo()
    dh = hv[coo.row] - hv[coo.col]
    dh2 = h2v[coo.row] - h2v[coo.col]
    return float(np.sum(coo.data * gv[coo.row] * dh * dh2))


def condition_I_loop(net, drift) -> float:
    """Condition (I) as the ``N x N`` loop of mutual energies
    ``sum_ij discrete_mutual_energy(h_i, h_j, b_i b_j)``."""
    return sum(
        discrete_mutual_energy(net, drift.h[i], drift.h[j], drift.b[i] * drift.b[j])
        for i in range(drift.N)
        for j in range(drift.N)
    )


def effective_resistance(net, x: int, y: int) -> float:
    """Resistance between two vertices: ``1 / E(f)`` for the unit Dirichlet
    problem ``f(x) = 1, f(y) = 0`` solved harmonically elsewhere; 0 for
    ``x == y``."""
    if int(x) == int(y):
        return 0.0
    f = harmonic_extension(net, {int(x): 1.0, int(y): 0.0})
    return 1.0 / energy(net, f)
