"""Adaptive Gauss-Kronrod quadrature over tail-truncated domains.

The integrands in this package are smooth with Gaussian-type envelopes,
so the Gauss-Kronrod 7-15 pair (QUADPACK's ``qk15``; Piessens et al.
1983) reaches a tight tolerance on few pieces: the 15-point Kronrod sum
is the estimate, and its distance from the embedded 7-point Gauss sum
bounds the error.  Every domain is finite: the callers cut an unbounded
one where its integrand's Gaussian tail is spent (``gaussian_tail_radius``)
or map it onto a bounded one.  The implementation keeps a flat worklist
of pieces and evaluates the integrand on arrays, which matters because
kernel evaluations are themselves vectorized lattice sums.

Every piece is refined on its own (Gander & Gautschi, "Adaptive
quadrature -- revisited", BIT 2000), so one worklist can carry many
integrals: each piece is tagged with the integral that owns it and is
accepted or halved against that owner's tolerance.  Each owner's
pieces keep the order they would have in a worklist of their own, and
each owner's accepted contributions are summed per depth over its own
pieces, so a batched integral is bit-identical to the same integral
computed alone.  ``adaptive_quadrature`` is the one-owner call of
``adaptive_quadrature_batch``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError

# The most pieces one worklist may hold: an integral whose size times
# machine epsilon exceeds its tolerance, or a NaN integrand, splits every
# piece at every depth.  Converging worklists hold 512 pieces at most: a
# Chapman-Kolmogorov block of 32 integrals at the guard partition.
MAX_OPEN_INTERVALS = 2 ** 16

# QUADPACK's qk15 table: the Kronrod nodes in [0, 1) from the outermost in,
# their weights, and the Gauss weights at every second node.  Mirrored,
# the nodes run over [-1, 1] in ascending order, and the 7 Gauss nodes are
# every second one from the second on.
_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245, 0.0)
_KRONROD = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
          0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
KRONROD_NODES = np.concatenate([np.negative(_NODES[:-1]), _NODES[::-1]])
KRONROD_WEIGHTS = np.array(_KRONROD + _KRONROD[-2::-1])
GAUSS_WEIGHTS = np.array(_GAUSS + _GAUSS[-2::-1])


def adaptive_quadrature_batch(f, a, b, tol=1e-10, max_depth=48, min_depth=4):
    """Integrate k integrals at once; integral i runs over [a[i], b[i]].

    f(x, owner) must accept a float array of nodes and an int array of
    the same shape naming the integral each node belongs to, and return
    the integrand values there.  tol is one absolute tolerance or one
    per integral.  Each integral starts as 2^min_depth equal pieces (the
    guard partition), each with an equal share of its tolerance; a piece
    is accepted where its Kronrod and Gauss sums differ by at most its
    share, else halved, and each half takes half the share.  A piece at
    depth d is 2^-d of its domain, so the first nodes lie at most about
    1/154 of it apart at min_depth 4, and a narrow peak cannot slip
    between them while the two sums agree by accident.  Returns the k
    values as a float array.  Raises QuadratureError, naming the
    unconverged integrals, if the worklist still holds open pieces at
    max_depth or grows beyond MAX_OPEN_INTERVALS.
    """
    lo = np.atleast_1d(np.asarray(a, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(b, dtype=np.float64))
    k = lo.shape[0]
    if lo.ndim != 1 or hi.shape != lo.shape:
        raise ValueError("a and b must be matching 1-d sequences")
    if not np.all(hi > lo):
        raise ValueError("need b > a")
    n = 2 ** min_depth
    tols = np.repeat(np.broadcast_to(np.asarray(tol, dtype=np.float64), lo.shape) / n, n)
    owner = np.repeat(np.arange(k), n)
    # each owner's pieces in order; the last edge is b itself
    edges = lo[:, None] + (hi - lo)[:, None] * (np.arange(n + 1) / n)
    edges[:, -1] = hi
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    totals = [0.0] * k
    for depth in range(min_depth, max_depth + 1):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * KRONROD_NODES
        fx = np.asarray(f(x.ravel(), np.repeat(owner, 15)), dtype=np.float64).reshape(x.shape)
        # weighted sums column by column, so a piece's bits do not depend on the row count
        kronrod = KRONROD_WEIGHTS[0] * fx[:, 0]
        for j in range(1, 15):
            kronrod += KRONROD_WEIGHTS[j] * fx[:, j]
        gauss = GAUSS_WEIGHTS[0] * fx[:, 1]
        for j in range(1, 7):
            gauss += GAUSS_WEIGHTS[j] * fx[:, 2 * j + 1]
        kronrod *= half
        gauss *= half
        err = np.abs(kronrod - gauss)
        done = err <= tols
        if np.any(done):
            _add_by_owner(totals, owner[done], kronrod[done])
        keep = ~done
        if not np.any(keep):
            return np.array(totals)
        owner = np.concatenate([owner[keep], owner[keep]])
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        tols = np.concatenate([0.5 * tols[keep], 0.5 * tols[keep]])
        if depth == max_depth or lo.shape[0] > MAX_OPEN_INTERVALS:
            break
    open_owners = sorted(set(owner.tolist()))
    raise QuadratureError(
        f"adaptive Gauss-Kronrod quadrature did not converge at depth {depth} of {max_depth} "
        f"({lo.shape[0]} pieces open, cap {MAX_OPEN_INTERVALS}, in integrals "
        f"{open_owners}; worst error {float(np.max(err)):.3e})",
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


def adaptive_quadrature(f, a, b, tol=1e-10, max_depth=48, min_depth=4):
    """Integrate f over [a, b] to absolute tolerance tol.

    f must accept and return numpy arrays.  This is the one-integral
    call of ``adaptive_quadrature_batch``, with the same depth rules.
    """
    value = adaptive_quadrature_batch(lambda x, owner: f(x), [a], [b], tol, max_depth, min_depth)
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
