"""Sampling Brownian paths: exact one-step laws, reproducible substreams,
and killing at an absorbing boundary."""

import math

import numpy as np

from pathkernel import (
    Compactified,
    DirichletInterval,
    Euclidean,
    Hyperbolic3,
    TimeGrid,
    TransitionKernel,
    dirichlet_mass_arrays,
    path_to_csv,
    point,
    sample_paths,
)
from pathkernel.manifold import distance_arrays

print("== flat line: endpoint variance is 2T ==")
gauss = TransitionKernel(Euclidean(1))
ens = sample_paths(gauss, point(0.0), TimeGrid.uniform(1.0, 1), master_seed=7, n_samples=100000)
print(f"sample variance at T=1: {np.var(ens.positions[:, -1, 0], ddof=1):.4f}  (target 2.0)")

print("\n== the same sample index always gives the same path ==")
grid = TimeGrid.uniform(0.5, 4)
solo = sample_paths(gauss, point(0.0), grid, master_seed=7, n_samples=1, first_index=3).path(0)
batch = sample_paths(gauss, point(0.0), grid, master_seed=7, n_samples=10)
match = all(a == b for a, b in zip(solo.points, batch.path(3).points))
print(f"sample 3 alone == sample 3 of a batch of ten: {match}")

print("\n== hyperbolic 3-space: radial law sampled exactly ==")
h3 = TransitionKernel(Hyperbolic3())
origin4 = point(1.0, 0.0, 0.0, 0.0)
ens3 = sample_paths(h3, origin4, TimeGrid.uniform(1.0, 1), master_seed=9, n_samples=200000)
rho = distance_arrays(Hyperbolic3(), ens3.positions[:, -1, :], np.array([1.0, 0, 0, 0]))
want = math.exp(-1.0) * 2.0 / math.sqrt(math.pi) + math.erf(1.0) * 3.0
print(f"mean displacement after t=1: {rho.mean():.5f} +- {rho.std()/math.sqrt(len(rho)):.5f}  (closed form {want:.5f})")

print("\n== killed paths on the absorbing interval ==")
killed = TransitionKernel(Compactified(DirichletInterval(math.pi)))
ensk = sample_paths(killed, point(math.pi / 2), TimeGrid.uniform(1.0, 32), master_seed=11, n_samples=100000)
mass = dirichlet_mass_arrays(1.0, math.pi / 2, math.pi)
print(f"survival fraction at t=1: {ensk.survival_fraction():.5f}  (series mass {mass:.5f})")

dead = int(np.nonzero(ensk.kill_step > 0)[0][0])
print(f"\nfirst absorbed path (sample {dead}) as CSV:")
print(path_to_csv(ensk.path(dead)).strip()[:400])
