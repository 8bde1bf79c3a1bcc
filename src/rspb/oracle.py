"""Independent verification machinery.

Everything in this module exists to check the main code paths by a different
route: exact Neyman-Pearson trade-offs by enumeration, an exhaustively
evaluated third-moment inequality, and a brute-force exponent that computes
the Augustin information by direct minimization rather than the fixed-point
iteration (deliberately sharing no code with the spe module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .measures import DiscreteChannel, FiniteDist, product_log_ratio

# ---------------------------------------------------------------------------
# exact Neyman-Pearson trade-off


@dataclass(frozen=True)
class NpCurve:
    """Deterministic-test trade-off curve, sorted by increasing type I."""

    type_i: np.ndarray
    type_ii: np.ndarray

    def type_ii_at(self, budget: float) -> float:
        """Optimal type II among deterministic tests with type I <= budget."""
        idx = int(np.searchsorted(self.type_i, budget, side="right")) - 1
        if idx < 0:
            raise PreconditionError(f"no test meets type-I budget {budget}")
        return float(self.type_ii[idx])


def exact_np_tradeoff(w_seq, q_seq, budget: int = 2_000_000) -> NpCurve:
    """Enumerate the optimal deterministic trade-off for a product pair.

    Components are collapsed to the law of the log-likelihood-ratio sum
    (merging equal atoms, which reduces i.i.d. binary pairs to the count
    statistic) and atoms are accepted in decreasing ratio order. The curve
    starts at the test accepting only the Q-null set and ends at type II
    zero. Type II is the W-mass still rejected, summed from the small end,
    so that it keeps its relative precision far below 1e-16.
    """
    atoms = product_log_ratio(w_seq, q_seq, budget=budget)
    order = np.argsort(-atoms.values, kind="stable")
    pw, pq = atoms.w_mass[order], atoms.q_mass[order]
    ti = np.concatenate(([0.0], np.cumsum(pq)))
    tii = np.concatenate((np.cumsum(pw[::-1])[::-1], [0.0]))
    if atoms.q_minus_inf > 0:
        ti = np.concatenate((ti, [ti[-1] + atoms.q_minus_inf]))
        tii = np.concatenate((tii, [0.0]))
    return NpCurve(type_i=np.clip(ti, 0.0, 1.0), type_ii=np.clip(tii, 0.0, 1.0))


# ---------------------------------------------------------------------------
# moment checks


def third_moment_inequality_check(probs, x1, x2, x3) -> tuple:
    """Exactly test E|X1+X2+X3|^3 <= 9 (E|X1|^3 + E|X2|^3 + E|X3|^3).

    The triple lives on a common finite space described by atom
    probabilities and per-variable values; expectations are exact sums.
    Returns (lhs, rhs, holds).
    """
    p = np.asarray(probs, dtype=float)
    x1, x2, x3 = (np.asarray(v, dtype=float) for v in (x1, x2, x3))
    lhs = float(p @ np.abs(x1 + x2 + x3) ** 3)
    rhs = 9.0 * float(p @ (np.abs(x1) ** 3 + np.abs(x2) ** 3 + np.abs(x3) ** 3))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-12) + 1e-12


def independent_triple(v1, p1, v2, p2, v3, p3) -> tuple:
    """Build the product space of three independent finite-valued variables."""
    v1, v2, v3 = (np.asarray(v, dtype=float) for v in (v1, v2, v3))
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    probs = (p1[:, None, None] * p2[None, :, None] * p3[None, None, :]).ravel()
    a = np.broadcast_to(v1[:, None, None], (v1.size, v2.size, v3.size)).ravel()
    b = np.broadcast_to(v2[None, :, None], (v1.size, v2.size, v3.size)).ravel()
    c = np.broadcast_to(v3[None, None, :], (v1.size, v2.size, v3.size)).ravel()
    return probs, a, b, c


# ---------------------------------------------------------------------------
# brute-force exponent (independent twin of the spe module)


def _info_binary_grid(rhos: np.ndarray, weights, w_rows, q_grid: int = 4000):
    """min_q of the weighted divergence for binary outputs, by dense search.

    A parabolic touch-up through the best grid point and its neighbors
    removes the O(grid step squared) bias of the raw scan.
    """
    qs = np.arange(1, q_grid) / q_grid
    lq1 = np.log(qs)
    lq0 = np.log1p(-qs)
    out = np.empty(rhos.size)
    chunk = 256
    for start in range(0, rhos.size, chunk):
        r = rhos[start : start + chunk][:, None]
        acc = 0.0
        for wx, weight in zip(w_rows, weights):
            terms = np.zeros((r.size, qs.size))
            if wx[0] > 0:
                terms += np.exp(r * math.log(wx[0]) + (1.0 - r) * lq0[None, :])
            if wx[1] > 0:
                terms += np.exp(r * math.log(wx[1]) + (1.0 - r) * lq1[None, :])
            acc = acc + weight * np.log(terms) / (r - 1.0)
        idx = acc.argmin(axis=1)
        rows = np.arange(acc.shape[0])
        best = acc[rows, idx]
        interior = (idx > 0) & (idx < qs.size - 1)
        left = acc[rows[interior], idx[interior] - 1]
        right = acc[rows[interior], idx[interior] + 1]
        mid = best[interior]
        curv = left - 2.0 * mid + right
        ok = curv > 0
        refined = mid.copy()
        refined[ok] = mid[ok] - (left[ok] - right[ok]) ** 2 / (8.0 * curv[ok])
        best[interior] = refined
        out[start : start + chunk] = best
    return out


def _info_softmax(rho: float, weights, w_rows, z0: np.ndarray) -> tuple:
    """min_q by L-BFGS-B over a softmax chart, warm-started at z0."""
    # the only scipy use in the package: deferred so that the binary-output
    # path, and with it every verification suite, runs on numpy alone
    from scipy.optimize import minimize

    def objective(z):
        z = z - z.max()
        q = np.exp(z)
        q /= q.sum()
        with np.errstate(divide="ignore"):
            lq = np.log(q)
        total = 0.0
        grad_q = np.zeros_like(q)
        for wx, weight in zip(w_rows, weights):
            m = wx > 0
            logits = rho * np.log(wx[m]) + (1.0 - rho) * lq[m]
            peak = logits.max()
            s = np.exp(logits - peak).sum()
            total += weight * (peak + math.log(s)) / (rho - 1.0)
            contrib = np.exp(logits - peak) / s
            grad_q[m] += weight * contrib * (1.0 - rho) / (rho - 1.0) / q[m]
        grad_z = q * (grad_q - float(grad_q @ q))
        return total, grad_z

    res = minimize(objective, z0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-12})
    return float(res.fun), res.x


def brute_spe(
    p: FiniteDist, channel: DiscreteChannel, rate: float, grid_size: int = 8192
) -> float:
    """Dense-grid supremum of (1-rho)/rho (I_rho - rate), computed from scratch.

    The Augustin information at each grid order is obtained by direct
    minimization over the output simplex (dense line search for binary
    outputs, warm-started quasi-Newton otherwise), never by the fixed-point
    iteration, so agreement with the parametric solve is an independent
    check. The grid {i/grid_size} is nested under doubling.
    """
    if grid_size < 2:
        raise PreconditionError(f"grid_size must be at least 2, got {grid_size}")
    rhos = np.arange(1, grid_size) / grid_size
    sup = p.support
    weights = p.masses[sup]
    w_rows = channel.row_matrix()[sup]
    if channel.output_size == 2:
        info = _info_binary_grid(rhos, weights, w_rows)
    else:
        info = np.empty(rhos.size)
        z = np.log(weights @ w_rows + 1e-300)
        for i, r in enumerate(rhos):
            info[i], z = _info_softmax(float(r), weights, w_rows, z)
    vals = (1.0 - rhos) / rhos * (info - rate)
    return float(max(vals.max(), 0.0))

