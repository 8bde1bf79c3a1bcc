"""Independent verification machinery.

Everything in this module exists to check the main code paths by a different
route: exact Neyman-Pearson trade-offs by enumeration, an exhaustively
evaluated third-moment inequality, and a brute-force exponent whose Augustin
information comes from a certified Newton minimization, never the fixed-point
iteration (deliberately sharing no code with augustin, spe or symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, PreconditionError
from .measures import DiscreteChannel, FiniteDist, _logsumexp, product_log_ratio

# ---------------------------------------------------------------------------
# exact Neyman-Pearson trade-off


@dataclass(frozen=True)
class NpCurve:
    """Deterministic-test trade-off curve, sorted by increasing type I; the
    randomized tests fill in its linear interpolation."""

    type_i: np.ndarray
    type_ii: np.ndarray

    def type_ii_at(self, budget: float) -> float:
        """Optimal type II among deterministic tests with type I <= budget."""
        idx = int(np.searchsorted(self.type_i, budget, side="right")) - 1
        if idx < 0:
            raise PreconditionError(f"no test meets type-I budget {budget}")
        return float(self.type_ii[idx])

    def randomized_type_ii_at(self, budget: float) -> float:
        """Optimal type II among randomized tests with type I <= budget: the
        curve interpolated linearly between consecutive deterministic tests,
        from the last one within the budget, which has the lowest type II
        where type I ties. Both weights of the mix are non-negative, so a
        type II far below 1e-16 keeps its relative precision."""
        above = int(np.searchsorted(self.type_i, budget, side="right"))
        if above in (0, self.type_i.size):
            # no test meets the budget, or every test does
            return self.type_ii_at(budget)
        pair = slice(above - 1, above + 1)
        (t0, t1), (e0, e1) = self.type_i[pair], self.type_ii[pair]
        return float(((t1 - budget) * e0 + (budget - t0) * e1) / (t1 - t0))


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


# An order stops only once its Frank-Wolfe gap max_y T(q)_y / q_y - 1 is at most
# CERTIFICATE_GAP. No step moves a rho ln q_y by more than MAX_STEP: a mass far
# above its optimum would land far below it, then climb by 1/rho in ln q a step.
CERTIFICATE_GAP = 1e-13
MAX_STEP = 2.0
MAX_NEWTON_STEPS = 100
# brute_spe zooms in on its best grid order: each round evaluates REFINE_POINTS
# orders evenly inside the two grid cells around the best so far
REFINE_POINTS = 32
REFINE_ROUNDS = 6


def _augustin_information(rhos: np.ndarray, weights, w_rows) -> np.ndarray:
    """min_q sum_x p(x) D_rho(W(x) || q) at each order on the outputs p W reaches,
    by damped Newton from p W. The sum is convex in q with gradient -T/q, T(q) =
    sum_x p(x) tilt_rho(W(x), q) (van Erven and Harremoes, IEEE TIT 2014), so
    the Frank-Wolfe gap bounds its excess (Jaggi, ICML 2013). The step dq = q u
    solves [[rho diag T + (1-rho) sum_x p(x) t_x t_x^T, q], [q^T, 0]] [u; l] =
    [T; 0], rows divided by T; ln q moves by s u, s by Armijo backtracking.
    """
    w_rows = w_rows[:, weights @ w_rows > 0]
    r, lp = rhos[:, None, None], np.log(weights)[:, None]
    info, active = np.empty(rhos.size), np.arange(rhos.size)
    with np.errstate(all="ignore"):
        lw, lq = np.log(w_rows), np.tile(np.log(weights @ w_rows), (rhos.size, 1))
        rhs = np.append(np.ones(lq.shape[1]), 0.0)[:, None]
        for n in range(MAX_NEWTON_STEPS + 1):
            logits = r * lw + (1.0 - r) * lq[:, None, :]
            lz = _logsumexp(logits, axis=2)
            lt = logits - lz[..., None]
            lT = _logsumexp(lp + lt, axis=1)
            gap = np.exp(lT - lq).max(axis=1) - 1.0
            done = gap <= CERTIFICATE_GAP
            info[active[done]] = lz[done] @ weights / (r[done, 0, 0] - 1.0)
            if done.all():
                return info
            stuck = ~done & (np.isnan(gap) | (n == MAX_NEWTON_STEPS))
            if stuck.any():
                rho, g = rhos[active][stuck][0], gap[stuck][0]
                raise NonConvergenceError(f"order {rho:.17g} not certified in {n} Newton steps", g)
            active, r, lq, lt, lT = (v[~done] for v in (active, r, lq, lt, lT))
            a = np.zeros((active.size, rhs.size, rhs.size))
            a[:, :-1, :-1] = r * np.eye(lq.shape[1]) + (1.0 - r) * (
                (weights[:, None] * np.exp(lt - lT[:, None, :])).swapaxes(1, 2) @ np.exp(lt))
            a[:, :-1, -1], a[:, -1, :-1] = np.exp(lq - lT), np.exp(lq)
            try:
                u = np.linalg.solve(a, rhs)[:, :-1, 0]
            except np.linalg.LinAlgError:  # a singular order's nan gap raises next
                u = np.where(np.linalg.det(a)[:, None] == 0, np.nan, np.zeros_like(lq))
            dec = np.einsum("ky,ky->k", np.exp(lT), u)
            s = np.minimum(1.0, MAX_STEP / (r[:, 0, 0] * np.abs(u).max(axis=1)))
            todo = dec >= 1e-10  # a smaller decrease is below rounding: full step
            while todo.any():
                # the exact change of the sum, in log1p-expm1 form to keep it precise
                su, r_t = s[todo, None] * u[todo], r[todo]
                lz_step = np.log1p(np.einsum(
                    "ksy,ksy->ks", np.exp(lt[todo]), np.expm1((1.0 - r_t) * su[:, None, :])))
                df = np.log1p(np.einsum("ky,ky->k", np.exp(lq[todo]), np.expm1(su))) - (
                    lz_step / (1.0 - r_t[:, :, 0])) @ weights
                ok = np.isfinite(df) & (df <= -1e-4 * s[todo] * dec[todo])
                s[np.flatnonzero(todo)[~ok]] *= 0.5
                todo[todo] = ~ok
            lq = lq + s[:, None] * u
            lq -= _logsumexp(lq, axis=1)[:, None]


def brute_spe(
    p: FiniteDist, channel: DiscreteChannel, rate: float, grid_size: int = 8192
) -> float:
    """Dense-grid supremum of (1-rho)/rho (I_rho - rate), computed from scratch.

    The Augustin information at each order i/grid_size (nested under doubling)
    is a certified direct minimum, never a fixed point, so agreement with the
    parametric solve is an independent check. The grid is then refined
    REFINE_ROUNDS times around its best order: at small orders the objective
    bends like 1/rho^3, and a grid alone can miss the supremum by far more
    than at larger orders.
    """
    if grid_size < 2:
        raise PreconditionError(f"grid_size must be at least 2, got {grid_size}")
    sup = p.support
    weights, w_rows = p.masses[sup], channel.row_matrix()[sup]
    # every grid holds its ends, 0 and 1 or the neighbours of the best order,
    # unevaluated
    grid, best = np.arange(grid_size + 1) / grid_size, -np.inf
    for _ in range(REFINE_ROUNDS + 1):
        rhos = grid[1:-1]
        # passes of about 2**18 (order, input, output) entries bound the memory
        blocks = np.array_split(rhos, min(rhos.size, -(-rhos.size * w_rows.size // 2**18)))
        info = np.concatenate([_augustin_information(b, weights, w_rows) for b in blocks])
        vals = (1.0 - rhos) / rhos * (info - rate)
        k = int(np.argmax(vals))
        best = max(best, vals[k])
        grid = np.linspace(grid[k], grid[k + 2], REFINE_POINTS + 2)
    return float(max(best, 0.0))
