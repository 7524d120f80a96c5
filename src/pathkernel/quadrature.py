"""Adaptive Simpson quadrature over tail-truncated domains.

The integrands in this package are smooth with Gaussian-type envelopes,
so interval-bisecting Simpson with Richardson correction converges
quickly.  Every domain is finite: the callers cut an unbounded one where
its integrand's Gaussian tail is spent (``gaussian_tail_radius``) or map
it onto a bounded one.  The implementation keeps a flat worklist of
intervals and evaluates the integrand on arrays, which matters because
kernel evaluations are themselves vectorized lattice sums.

Every interval is refined on its own (Gander & Gautschi, "Adaptive
quadrature -- revisited", BIT 2000), so one worklist can carry many
integrals: each interval is tagged with the integral that owns it and is
accepted or halved against that owner's tolerance.  Each owner's
intervals keep the order they would have in a worklist of their own,
and each owner's accepted contributions are summed per depth over its
own intervals, so a batched integral is bit-identical to the same
integral computed alone.  ``adaptive_simpson`` is the one-owner call of
``adaptive_simpson_batch``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError

# The most intervals one worklist may hold: an integral whose size times
# machine epsilon exceeds its tolerance, or a NaN integrand, splits every
# interval at every depth.  Converging worklists stay under 4,000.
MAX_OPEN_INTERVALS = 2 ** 16


def adaptive_simpson_batch(f, a, b, tol=1e-10, max_depth=48, min_depth=4):
    """Integrate k integrals at once; integral i runs over [a[i], b[i]].

    f(x, owner) must accept a float array of nodes and an int array of
    the same shape naming the integral each node belongs to, and return
    the integrand values there.  tol is one absolute tolerance or one
    per integral.  No interval is accepted before it has been halved
    ``min_depth`` times, so a narrow peak cannot slip between the first
    few Simpson nodes while the coarse and fine estimates agree by
    accident.  Returns the k values as a float array.  Raises
    QuadratureError, naming the unconverged integrals, if the worklist
    still holds open intervals at max_depth or grows beyond
    MAX_OPEN_INTERVALS.
    """
    lo = np.atleast_1d(np.asarray(a, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(b, dtype=np.float64))
    k = lo.shape[0]
    if lo.ndim != 1 or hi.shape != lo.shape:
        raise ValueError("a and b must be matching 1-d sequences")
    if not np.all(hi > lo):
        raise ValueError("need b > a")
    tols = np.broadcast_to(np.asarray(tol, dtype=np.float64), lo.shape).copy()
    owner = np.arange(k)
    fs = np.asarray(f(np.concatenate([lo, 0.5 * (lo + hi), hi]), np.tile(owner, 3)),
                    dtype=np.float64)
    fa, fm, fb = fs[:k], fs[k:2 * k], fs[2 * k:]
    coarse = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    totals = [0.0] * k
    for depth in range(max_depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = np.asarray(f(lm, owner), dtype=np.float64)
        frm = np.asarray(f(rm, owner), dtype=np.float64)
        left = (mid - lo) / 6.0 * (fa + 4.0 * flm + fm)
        right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fb)
        fine = left + right
        err = fine - coarse
        done = (np.abs(err) <= 15.0 * tols) & (depth >= min_depth)
        if np.any(done):
            _add_by_owner(totals, owner[done], fine[done] + err[done] / 15.0)
        keep = ~done
        if not np.any(keep):
            return np.array(totals)
        # split the surviving intervals
        owner = np.concatenate([owner[keep], owner[keep]])
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        fm = np.concatenate([flm[keep], frm[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        tols = np.concatenate([0.5 * tols[keep], 0.5 * tols[keep]])
        if lo.shape[0] > MAX_OPEN_INTERVALS:
            break
    open_owners = sorted(set(owner.tolist()))
    raise QuadratureError(
        f"adaptive Simpson did not converge at depth {depth + 1} of {max_depth} "
        f"({lo.shape[0]} intervals open, cap {MAX_OPEN_INTERVALS}, in integrals "
        f"{open_owners}; worst error {float(np.max(np.abs(err))):.3e})",
        owners=open_owners,
    )


def _add_by_owner(totals, owner, values):
    """totals[o] += the sum of o's values, in worklist order, one np.sum per owner.

    np.sum adds pairwise and np.add.reduceat sequentially, so only the
    former rounds as the same integral's lone worklist does.
    """
    if np.all(owner == owner[0]):
        totals[owner[0]] += float(np.sum(values))
        return
    order = np.argsort(owner, kind="stable")
    owner = owner[order]
    values = values[order]
    starts = np.flatnonzero(np.concatenate([[True], owner[1:] != owner[:-1]]))
    for o, part in zip(owner[starts].tolist(), np.split(values, starts[1:])):
        totals[o] += float(np.sum(part))


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=48, min_depth=4):
    """Integrate f over [a, b] to absolute tolerance tol.

    f must accept and return numpy arrays.  This is the one-integral
    call of ``adaptive_simpson_batch``, with the same depth rules.
    """
    value = adaptive_simpson_batch(lambda x, owner: f(x), [a], [b], tol, max_depth, min_depth)
    return float(value[0])


def gaussian_tail_radius(t, tail_tolerance):
    """Radius beyond which exp(-r^2/4t) falls below tail_tolerance.

    Where 4 t log(1/tol) overflows (t near the float maximum) the radius is
    2 sqrt(t) sqrt(log(1/tol)), which does not.
    """
    square = 4.0 * t * math.log(1.0 / tail_tolerance)
    if square == math.inf:
        return 2.0 * math.sqrt(t) * math.sqrt(math.log(1.0 / tail_tolerance))
    return math.sqrt(max(square, 0.0))


def maximize_scalar(f, lo, hi, grid=512, iters=200):
    """Maximum of a smooth unimodal-ish function on [lo, hi].

    Coarse grid scan, then golden-section refinement around the best
    bracket.  Returns (argmax, max).
    """
    xs = np.linspace(lo, hi, grid)
    vals = np.asarray(f(xs), dtype=np.float64)
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = float(f(np.array([c]))[0])
    fd = float(f(np.array([d]))[0])
    for _ in range(iters):
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(f(np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(f(np.array([d]))[0])
    x = 0.5 * (a + b)
    return x, float(f(np.array([x]))[0])
