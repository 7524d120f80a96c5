"""Path and bridge sampling from finite-dimensional kernel distributions.

A sampled path is exact in its finite-dimensional law: each grid step is
drawn from the model's transition density (sequentially for free paths,
conditioned on the pinned endpoint for bridges).  Nothing is claimed
about behavior between grid points.

``sample_rows`` checks its input and, with ``heat_kernel.check_task``,
that the kernel's law draws what is asked, then calls the law, whose one
walk yields each grid time's row; ``sample_paths`` and ``sample_bridges``
store the rows as a ``PathEnsemble``.

Determinism contract
--------------------
Sample ``i`` of an ensemble consumes variates only from substream
``(master_seed, first_index + i)`` through a per-sample cursor, in the
fixed order per law that ``heat_kernel`` lists beside the laws.  Because
of this, results are bit-identical no matter how samples are partitioned
across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepTooLargeError
from .heat_kernel import check_task, evaluate
from .manifold import (
    CEMETERY,
    Point,
    distance_arrays,
    lift_arrays,
    project_arrays,
    validate_point,
)
from .rng import StreamCursor

NEVER_KILLED = -1


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite times starting at 0."""

    times: tuple

    def __post_init__(self):
        ts = tuple(float(v) for v in self.times)
        object.__setattr__(self, "times", ts)
        if len(ts) < 2:
            raise ValueError("a grid needs at least one step")
        if ts[0] != 0.0:
            raise ValueError("grids start at time 0")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("grid times must be strictly increasing")
        if not all(math.isfinite(v) for v in ts):
            raise ValueError("grid times must be finite; shorten the horizon")

    @staticmethod
    def uniform(horizon, n_steps):
        if n_steps < 1:
            raise ValueError("need n_steps >= 1")
        h = float(horizon)
        if h <= 0:
            raise ValueError("horizon must be positive")
        return TimeGrid(tuple(h * j / n_steps for j in range(n_steps + 1)))

    @property
    def horizon(self):
        return self.times[-1]

    @property
    def n_steps(self):
        return len(self.times) - 1

    def steps(self):
        return np.diff(np.asarray(self.times))


@dataclass
class Path:
    """Grid skeleton of one continuous path, with optional absorption."""

    grid: TimeGrid
    points: tuple
    kill_index: int | None = None

    def __post_init__(self):
        self.points = tuple(self.points)
        if len(self.points) != len(self.grid.times):
            raise ValueError("one point per grid time")
        if self.kill_index is not None:
            if not 1 <= self.kill_index <= self.grid.n_steps:
                raise ValueError("kill_index out of range")
            for j, p in enumerate(self.points):
                if (j >= self.kill_index) != p.cemetery:
                    raise ValueError("points at or after kill_index must be the cemetery")
        elif any(p.cemetery for p in self.points):
            raise ValueError("cemetery point without kill_index")


@dataclass
class PathEnsemble:
    """Vectorized sample of paths sharing one grid.

    ``positions[i, j]`` are the coordinates of sample i at grid time j;
    rows at and after a sample's kill step hold NaN, and no others.
    ``positions`` is a transposed view of a step-major array, and
    ``windings`` is populated by covering-decomposition bridges.
    """

    grid: TimeGrid
    positions: np.ndarray
    windings: np.ndarray | None = None
    rejection_attempts: int = 0  # no sampler rejects; kept for the benchmark tracer, which reads it

    def __len__(self):
        return self.positions.shape[0]

    @property
    def kill_step(self):
        """Per sample, the grid index of its first NaN row, or NEVER_KILLED."""
        dead = np.isnan(self.positions[:, :, 0])
        return np.where(dead[:, -1], np.argmax(dead, axis=1), NEVER_KILLED)

    def survival_fraction(self):
        return float(np.mean(~np.isnan(self.positions[:, -1, 0])))  # a kill is final

    def path(self, i):
        pts = []
        k = int(self.kill_step[i])
        for j in range(self.positions.shape[1]):
            if k != NEVER_KILLED and j >= k:
                pts.append(CEMETERY)
            else:
                pts.append(Point(coords=tuple(self.positions[i, j])))
        return Path(grid=self.grid, points=tuple(pts), kill_index=None if k == NEVER_KILLED else k)


# ---------------------------------------------------------------------------
# free path sampling


def sample_rows(kernel, x0, y0, grid, master_seed, n_samples, first_index=0):
    """The rows of free paths from x0 (y0 None) or of bridges to y0, and the
    bridges' windings (None off the lattice law).  Row j, every sample's
    position at grid time j, is drawn as it is read; windings are drawn first."""
    coords = [validate_point(kernel.model, p, name) for name, p in (("x0", x0), ("y0", y0)) if p is not None]
    if any(c is None for c in coords):
        raise ValueError("paths and bridges cannot start or end at the cemetery")
    if not isinstance(grid, TimeGrid):
        raise TypeError("grid must be a TimeGrid")
    n = int(n_samples)
    if n < 1:
        raise ValueError("need at least one sample")
    cursor = StreamCursor(master_seed, first_index + np.arange(n, dtype=np.uint64))
    check_task(kernel, "paths" if y0 is None else "bridges")
    if y0 is None:
        return kernel._law.paths(cursor, coords[0], grid.steps().tolist()), None
    return kernel._law.bridges(cursor, *coords, grid.times)


def _stored(grid, rows, windings):
    """The ensemble of the rows, stored in one step-major array."""
    for j, row in enumerate(rows):
        if j == 0:
            walk = np.empty((len(grid.times),) + row.shape)
        walk[j] = row
    return PathEnsemble(grid, walk.transpose(1, 0, 2), windings)


def sample_paths(kernel, x0, grid, master_seed, n_samples, first_index=0):
    """Ensemble of Markov paths started at x0, stepped by the kernel's law."""
    return _stored(grid, *sample_rows(kernel, x0, None, grid, master_seed, n_samples, first_index))


# ---------------------------------------------------------------------------
# bridges


def bridge_total_mass(kernel, x0, y0, horizon):
    """Mass of the unnormalized bridge measure: the kernel at the endpoints."""
    return evaluate(kernel, horizon, y0, x0)


def sample_bridges(kernel, x0, y0, grid, master_seed, n_samples, first_index=0):
    """Ensemble from the normalized bridge law, drawn by the kernel's law;
    the last point is y0 exactly."""
    return _stored(grid, *sample_rows(kernel, x0, y0, grid, master_seed, n_samples, first_index))


# ---------------------------------------------------------------------------
# covering operations on whole paths


def project_path(cov, path):
    """Pointwise covering projection; the grid is unchanged."""
    pts = []
    for p in path.points:
        x = validate_point(cov.total, p, "path point")
        pts.append(Point(coords=tuple(project_arrays(cov, x))))
    return Path(grid=path.grid, points=tuple(pts), kill_index=None)


def lift_positions(cov, positions, anchor):
    """Lift base-space positions (n, m+1, d) step by step from an anchor."""
    per = np.asarray(cov.periods)
    n, mm, d = positions.shape
    out = np.empty_like(positions)
    out[:, 0] = anchor
    for j in range(1, mm):
        step = distance_arrays(cov.base, positions[:, j], positions[:, j - 1])
        if np.any(step >= np.min(per) / 2.0):
            raise StepTooLargeError(
                "a path step reaches half the shortest period; its lift is ambiguous"
            )
        lifted, _ = lift_arrays(cov, positions[:, j], out[:, j - 1])
        out[:, j] = lifted
    return out


def lift_path(cov, path, anchor):
    """Continuous lift of a base path starting at the given preimage anchor."""
    aa = validate_point(cov.total, anchor, "anchor")
    first = validate_point(cov.base, path.points[0], "path start")
    proj = project_arrays(cov, aa)
    if not np.array_equal(proj, first):
        raise ValueError("anchor does not project onto the path's first point")
    if path.kill_index is not None:
        raise ValueError("cannot lift a killed path")
    base_positions = np.stack([p.array() for p in path.points])[None, :, :]
    lifted = lift_positions(cov, base_positions, aa)[0]
    pts = tuple(Point(coords=tuple(row)) for row in lifted)
    return Path(grid=path.grid, points=pts, kill_index=None)


# ---------------------------------------------------------------------------
# CSV dump


def path_to_csv(path, comment=None):
    """Render one path in the dump schema  t,coord0[,coord1,...],killed."""
    width = max((len(p.coords) for p in path.points if not p.cemetery), default=1)
    lines = []
    if comment:
        lines.append(f"# {comment}")
    cols = ",".join(f"coord{i}" for i in range(width))
    lines.append(f"t,{cols},killed")
    for t, p in zip(path.grid.times, path.points):
        if p.cemetery:
            coords = ",".join("nan" for _ in range(width))
            lines.append(f"{t:.17g},{coords},1")
        else:
            coords = ",".join(f"{c:.17g}" for c in p.coords)
            lines.append(f"{t:.17g},{coords},0")
    return "\n".join(lines) + "\n"
