"""Path and bridge sampling from finite-dimensional kernel distributions.

A sampled path is exact in its finite-dimensional law: each grid step is
drawn from the model's transition density (sequentially for free paths,
conditioned on the pinned endpoint for bridges).  Nothing is claimed
about behavior between grid points.

Determinism contract
--------------------
Sample ``i`` of an ensemble consumes variates only from substream
``(master_seed, first_index + i)`` through a per-sample cursor, in a
fixed order per model:

* Euclidean / torus / circle step: ``dim`` normals (2 uniform slots each).
* Cauchy step: one uniform.
* Hyperbolic step: three normals (6 slots) for the radius, then two
  uniforms for the sphere direction.
* Killed interval step: one normal proposal (2 slots) plus one
  acceptance uniform; killed samples stop drawing.
* Torus/circle bridge: one winding uniform per coordinate, then
  Euclidean bridge steps.
* Hyperbolic bridge step: per rejection attempt the 8 slots of a free
  step plus one acceptance uniform.

Because of this, results are bit-identical no matter how samples are
partitioned across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSampleError, RejectionBudgetError, StepTooLargeError
from .heat_kernel import (
    dirichlet_kernel_arrays,
    evaluate,
    gauss_profile,
)
from .manifold import (
    CEMETERY,
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    FlatTorus,
    Hyperbolic3,
    Point,
    covering_of,
    distance_arrays,
    exp_point_arrays,
    lift_arrays,
    model_dim,
    periods_of,
    project_arrays,
    validate_point,
)
from .quadrature import gaussian_tail_radius
from .rng import RngContract, StreamCursor, box_muller

REJECTION_BUDGET = 10 ** 4

NEVER_KILLED = -1


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at 0."""

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

    @property
    def killed(self):
        return self.kill_index is not None


@dataclass
class PathEnsemble:
    """Vectorized sample of paths sharing one grid.

    ``positions[i, j]`` are the coordinates of sample i at grid time j;
    rows at and after a sample's kill step hold NaN.  ``windings`` is
    populated by covering-decomposition bridges.
    """

    model: object
    grid: TimeGrid
    positions: np.ndarray
    kill_step: np.ndarray
    first_index: int = 0
    master_seed: int = 0
    windings: np.ndarray | None = None
    rejection_attempts: int = 0

    def __len__(self):
        return self.positions.shape[0]

    @property
    def n_samples(self):
        return self.positions.shape[0]

    def survival_fraction(self):
        return float(np.mean(self.kill_step == NEVER_KILLED))

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
# hyperbolic steps


def _h3_direction(cursor, rows):
    uv = cursor.uniforms_at(rows, 2)
    c = 1.0 - 2.0 * uv[:, 0]
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    phi = 2.0 * np.pi * uv[:, 1]
    return np.stack([s * np.cos(phi), s * np.sin(phi), c], axis=-1)


def _h3_free_step(cursor, rows, current, dt):
    """One exact H^3 heat-kernel step from each row of ``current``.

    The radial law ~ r sinh(r) exp(-r^2/4t) is the law of |Z| for
    Z ~ N(2t e_1, 2t I_3) (Rogers & Pitman, 1981), so three normals give
    the radius; the direction is drawn independently and uniformly.
    """
    s = math.sqrt(2.0 * dt)
    z0 = cursor.normals_at(rows)
    z1 = cursor.normals_at(rows)
    z2 = cursor.normals_at(rows)
    r = s * np.sqrt((z0 + s) ** 2 + z1 * z1 + z2 * z2)
    direction = _h3_direction(cursor, rows)
    # overflow is reported once, below, as an error rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = exp_point_arrays(current, direction, r)
    if not np.all(np.isfinite(out)):
        raise NonFiniteSampleError(
            f"a hyperbolic step of time {dt} left the float range; shorten the steps or the horizon"
        )
    return out


# ---------------------------------------------------------------------------
# free path sampling


def sample_paths(kernel, x0, grid, master_seed, n_samples, first_index=0):
    """Ensemble of Markov paths started at x0; see the module docstring
    for the per-model step samplers and the draw protocol."""
    model = kernel.model
    x0a = validate_point(model, x0, "x0")
    if x0a is None:
        raise ValueError("cannot start a path at the cemetery")
    if not isinstance(grid, TimeGrid):
        raise TypeError("grid must be a TimeGrid")
    n = int(n_samples)
    if n < 1:
        raise ValueError("need at least one sample")
    cursor = StreamCursor(master_seed, first_index + np.arange(n, dtype=np.uint64))
    steps = grid.steps()
    m = grid.n_steps

    if isinstance(model, Compactified):
        if not isinstance(model.base, DirichletInterval) or kernel.kind != "heat":
            raise ValueError("killed sampling is implemented for Compactified(DirichletInterval)")
        L = model.base.length
        pos = np.full((n, m + 1, 1), np.nan)
        pos[:, 0, 0] = x0a[0]
        kill = np.full(n, NEVER_KILLED, dtype=np.int64)
        alive = np.arange(n)
        for j, dt in enumerate(steps):
            if alive.size == 0:
                break
            u = cursor.uniforms_at(alive, 3)  # normal proposal, acceptance
            prop = pos[alive, j, 0] + math.sqrt(2.0 * dt) * box_muller(u[:, :2])[:, 0]
            inside = (prop > 0.0) & (prop < L)
            ratio = np.zeros_like(prop)
            if np.any(inside):
                prev = pos[alive, j, 0][inside]
                num = dirichlet_kernel_arrays(dt, prev, prop[inside], L, kernel.truncation)
                den = gauss_profile(dt, (prev - prop[inside]) ** 2, 1)
                ratio[inside] = np.minimum(num / den, 1.0)
            survive = u[:, 2] < ratio
            pos[alive[survive], j + 1, 0] = prop[survive]
            kill[alive[~survive]] = j + 1
            alive = alive[survive]
        return PathEnsemble(model, grid, pos, kill, first_index, int(master_seed))

    if kernel.kind == "cauchy":
        pos = np.empty((n, m + 1, 1))
        pos[:, 0, 0] = x0a[0]
        for j, dt in enumerate(steps):
            u = cursor.uniforms(1)[:, 0]
            pos[:, j + 1, 0] = pos[:, j, 0] + dt * np.tan(np.pi * (u - 0.5))
        kill = np.full(n, NEVER_KILLED, dtype=np.int64)
        return PathEnsemble(model, grid, pos, kill, first_index, int(master_seed))

    if isinstance(model, (Euclidean, Circle, FlatTorus)):
        d = model_dim(model)
        periodic = isinstance(model, (Circle, FlatTorus))
        pos = np.empty((n, m + 1, d))
        pos[:, 0] = x0a
        for j, dt in enumerate(steps):
            z = cursor.normals(d)
            nxt = pos[:, j] + math.sqrt(2.0 * dt) * z
            if periodic:
                nxt = project_arrays(covering_of(model), nxt)
            pos[:, j + 1] = nxt
        kill = np.full(n, NEVER_KILLED, dtype=np.int64)
        return PathEnsemble(model, grid, pos, kill, first_index, int(master_seed))

    if isinstance(model, Hyperbolic3):
        pos = np.empty((n, m + 1, 4))
        pos[:, 0] = x0a
        rows = np.arange(n)
        for j, dt in enumerate(steps):
            pos[:, j + 1] = _h3_free_step(cursor, rows, pos[:, j], dt)
        kill = np.full(n, NEVER_KILLED, dtype=np.int64)
        return PathEnsemble(model, grid, pos, kill, first_index, int(master_seed))

    if isinstance(model, DirichletInterval):
        raise ValueError(
            "paths on the absorbing interval carry killing; wrap the model in Compactified"
        )
    raise TypeError(f"no path sampler for {model!r}")


def sample_path(kernel, x0, grid, rng):
    """One path on substream (rng.master_seed, rng.sample_index)."""
    if not isinstance(rng, RngContract):
        raise TypeError("rng must be an RngContract")
    ens = sample_paths(kernel, x0, grid, rng.master_seed, 1, first_index=rng.sample_index)
    return ens.path(0)


# ---------------------------------------------------------------------------
# bridges


def bridge_total_mass(kernel, x0, y0, horizon):
    """Mass of the unnormalized bridge measure: the kernel at the endpoints."""
    return evaluate(kernel, horizon, y0, x0)


def _euclidean_bridge_fill(cursor, pos, times, target, dim):
    """Sequential conditional Gaussian steps toward the pinned endpoint."""
    m = len(times) - 1
    horizon = times[-1]
    for j in range(m - 1):
        dt = times[j + 1] - times[j]
        rem = horizon - times[j]
        mean = pos[:, j] + (dt / rem) * (target - pos[:, j])
        var = 2.0 * dt * (rem - dt) / rem
        z = cursor.normals(dim)
        pos[:, j + 1] = mean + math.sqrt(var) * z
    pos[:, m] = target


def sample_bridges(kernel, x0, y0, grid, master_seed, n_samples, first_index=0):
    """Ensemble from the normalized bridge law; the last point is y0 exactly.

    Periodic models draw a deck element per coordinate with Gaussian
    image weights, run a Euclidean bridge to the chosen lift and
    project.  Hyperbolic bridges sample each step against the remaining
    time by rejection on the free step.
    """
    model = kernel.model
    x0a = validate_point(model, x0, "x0")
    y0a = validate_point(model, y0, "y0")
    if x0a is None or y0a is None:
        raise ValueError("bridge endpoints must not be the cemetery")
    if isinstance(model, (DirichletInterval, Compactified)):
        raise ValueError("bridges for absorbing models are out of scope")
    if kernel.kind == "cauchy":
        raise ValueError("bridge sampling is not defined for the Cauchy kernel")
    if not isinstance(grid, TimeGrid):
        raise TypeError("grid must be a TimeGrid")
    n = int(n_samples)
    cursor = StreamCursor(master_seed, first_index + np.arange(n, dtype=np.uint64))
    times = np.asarray(grid.times)
    m = grid.n_steps
    horizon = grid.horizon
    kill = np.full(n, NEVER_KILLED, dtype=np.int64)

    if isinstance(model, Euclidean):
        d = model.dim
        pos = np.empty((n, m + 1, d))
        pos[:, 0] = x0a
        _euclidean_bridge_fill(cursor, pos, times, np.broadcast_to(y0a, (n, d)), d)
        return PathEnsemble(model, grid, pos, kill, first_index, int(master_seed))

    if isinstance(model, (Circle, FlatTorus)):
        periods = np.asarray(periods_of(model))
        d = len(periods)
        # winding weights per coordinate: Gaussian images of the endpoint gap
        windings = np.empty((n, d), dtype=np.int64)
        target = np.empty((n, d))
        for i, L in enumerate(periods):
            gap = y0a[i] - x0a[i]
            radius = gaussian_tail_radius(horizon, 1e-17) + abs(gap)
            kmax = int(math.ceil(radius / L)) + 1
            ks = np.arange(-kmax, kmax + 1, dtype=np.float64)
            w = np.exp(-((gap + ks * L) ** 2) / (4.0 * horizon))
            cum = np.cumsum(w / np.sum(w))
            u = cursor.uniforms(1)[:, 0]
            idx = np.searchsorted(cum, u)
            idx = np.minimum(idx, ks.shape[0] - 1)
            windings[:, i] = ks[idx].astype(np.int64)
            target[:, i] = x0a[i] + gap + ks[idx] * L
        pos = np.empty((n, m + 1, d))
        pos[:, 0] = x0a
        _euclidean_bridge_fill(cursor, pos, times, target, d)
        pos = project_arrays(covering_of(model), pos)
        pos[:, 0] = x0a
        pos[:, m] = y0a
        return PathEnsemble(model, grid, pos, kill, first_index, int(master_seed), windings=windings)

    if isinstance(model, Hyperbolic3):
        pos = np.empty((n, m + 1, 4))
        pos[:, 0] = x0a
        rej = 0
        for j in range(1, m):
            dt = times[j] - times[j - 1]
            tau = horizon - times[j]
            pending = np.arange(n)
            attempts = 0
            while pending.size:
                attempts += 1
                if attempts > REJECTION_BUDGET:
                    raise RejectionBudgetError(
                        f"hyperbolic bridge step {j} exceeded {REJECTION_BUDGET} attempts",
                        attempts=attempts,
                        acceptance_rate=1.0 - pending.size / n,
                    )
                prop = _h3_free_step(cursor, pending, pos[pending, j - 1], dt)
                rho = distance_arrays(model, prop, np.broadcast_to(y0a, prop.shape))
                small = rho < 1e-6
                safe = np.where(small, 1.0, rho)
                ratio = np.where(small, 1.0 - rho * rho / 6.0, safe / np.sinh(safe))
                acc_p = ratio * np.exp(-rho * rho / (4.0 * tau))
                u = cursor.uniforms_at(pending)[:, 0]
                ok = u < acc_p
                pos[pending[ok], j] = prop[ok]
                pending = pending[~ok]
            rej += attempts
        pos[:, m] = y0a
        return PathEnsemble(model, grid, pos, kill, first_index, int(master_seed), rejection_attempts=rej)

    raise TypeError(f"no bridge sampler for {model!r}")


def sample_bridge(kernel, x0, y0, grid, rng):
    if not isinstance(rng, RngContract):
        raise TypeError("rng must be an RngContract")
    ens = sample_bridges(kernel, x0, y0, grid, rng.master_seed, 1, first_index=rng.sample_index)
    return ens.path(0)


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
