"""Fixed reference kernels that track the speed of a shared machine.

On a shared host the same frames decode up to twice as slowly when other
tenants are busy, and the machine switches between its fast and slow
states every few seconds.  The benchmark times a kernel next to every
timing it takes and scales that timing by
``nominal_seconds / median(kernel times around it)``, so its figures read
as if taken at the kernel's nominal speed.

Different work slows by different amounts in the slow state, so each
kernel imitates the work it stands in for.  ``DecodeKernel`` runs rounds
of an ADMM-like iteration (an x-update by ``bincount`` over the edges,
then a sorted, clipped projection of each check's values) on a random
graph with the workload's number of variables, checks and check degree.
``SetupKernel`` mixes small-array numpy calls with Python-level loops, as
building and parsing a code does.  Neither uses polylp code, so no change
to polylp can move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Rounds are sized by the projection's m * d^2 scratch size, so that one
# run of the kernel takes 4-11 ms on each workload's shape.
ROUND_BUDGET = 150_000


def _project_like(vals: np.ndarray) -> np.ndarray:
    """Sort each row, clip, and search a kink grid, as a projection does."""
    m, d = vals.shape
    rows = np.arange(m)
    order = np.argsort(-vals, axis=1, kind="stable")
    v = vals[rows[:, None], order]
    clipped = np.minimum(np.maximum(v, 0.0), 1.0)
    r = (2.0 * np.floor(clipped.sum(axis=1) / 2.0)).astype(np.int64)
    r_lo = np.minimum(r, d - 1)
    sign = np.where(np.arange(d)[None, :] <= r_lo[:, None], 1.0, -1.0)
    head = np.cumsum(clipped, axis=1)[rows, r_lo]
    grid = np.empty((m, 2 * d + 2))
    grid[:, 0] = 0.0
    grid[:, 1 : d + 1] = np.where(sign > 0, v - 1.0, -v)
    grid[:, d + 1 : 2 * d + 1] = np.where(sign > 0, v, 1.0 - v)
    grid[:, 2 * d + 1] = 0.5
    np.minimum(np.maximum(grid, 0.0), 0.5, out=grid)
    grid.sort(axis=1)
    z_grid = v[:, None, :] - grid[:, :, None] * sign[:, None, :]
    np.minimum(np.maximum(z_grid, 0.0, out=z_grid), 1.0, out=z_grid)
    g = np.einsum("ijk,ik->ij", z_grid, sign)
    idx = np.argmax(g <= r[:, None], axis=1)
    z = v - grid[rows, idx][:, None] * sign + 1e-3 * head[:, None]
    out = np.empty_like(z)
    out[rows[:, None], order] = z
    return out


class Kernel:
    nominal_seconds: float

    def _work(self) -> float:
        raise NotImplementedError

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def scales(self, samples: list[float]) -> list[float]:
        """Scales for the timings taken between consecutive samples.

        Timing ``i`` lies between samples ``i`` and ``i + 1``; it is scaled
        by the median of samples ``i - 1 .. i + 2``, so a change of the
        machine's speed is followed and one disturbed sample is outvoted.
        """
        return [
            self.nominal_seconds / statistics.median(samples[max(0, i - 1) : i + 3])
            for i in range(len(samples) - 1)
        ]


class DecodeKernel(Kernel):
    def __init__(self, n_vars: int, checks: int, degree: int, nominal_seconds: float) -> None:
        rng = np.random.default_rng(0)
        self.n_vars = n_vars
        self.edge_var = rng.integers(0, n_vars, checks * degree)
        self.offset = rng.random((checks, degree)) * 1.6 - 0.3
        self.cost = rng.normal(size=n_vars)
        self.rounds = max(1, round(ROUND_BUDGET / (checks * degree**2)))
        self.nominal_seconds = nominal_seconds

    def _work(self) -> float:
        z = self.offset.reshape(-1).copy()
        acc = 0.0
        for _ in range(self.rounds):
            acc_x = np.bincount(self.edge_var, weights=z, minlength=self.n_vars)
            x = np.clip(acc_x / 3.0 - 0.01 * self.cost, 0.0, 1.0)
            gathered = x[self.edge_var]
            z = _project_like(gathered.reshape(self.offset.shape) + 0.1 * self.offset).reshape(-1)
            acc += float(((gathered - z) ** 2).sum())
        return acc


class SetupKernel(Kernel):
    # About the median kernel time on a shared 2-core Intel Xeon (numpy 2.4,
    # Python 3.11); only ratios of the scaled figures are ever compared.
    nominal_seconds = 0.0085

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.random((500, 6)) * 3.0 - 1.0
        self.index = rng.integers(0, 1000, 3000)
        self.rows = [rng.random(200) * 2.0 - 1.0 for _ in range(50)]

    def _work(self) -> float:
        x = self.x.copy()
        acc = 0.0
        for _ in range(32):
            order = np.argsort(-x, axis=1, kind="stable")
            v = np.take_along_axis(x, order, axis=1)
            c = np.cumsum(np.clip(v, 0.0, 1.0), axis=1)
            g = np.einsum("ij,ij->i", c, v)
            t = np.tanh(0.5 * x.reshape(-1))
            b = np.bincount(self.index, weights=t, minlength=1000)
            x = np.clip(x + 0.01 * g[:, None] - 0.001 * b[:500, None], -1.0, 2.0)
            acc += float(b.sum())
        for _ in range(4):
            for row in self.rows:
                acc += sum(float(u) * 0.5 for u in row[:40])
                acc += float(np.maximum(row, 0.0).sum())
        return acc
