"""Seeded workload definitions and strategy arms of the samkit benchmark.

Seed 0 reproduces the paper's inputs exactly: the Dirichlet boundary
right-hand side of the Helmholtz sweep, and a centred point source with
constant conductivity for the FEM pairs.  Any other seed draws a random
unit right-hand side and, for the FEM pairs, a smooth positive conductivity
field from ``numpy.random.default_rng(seed)``.  The program under test only
ever receives the generated matrices and vectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from samkit import (
    GmresConfig, IlutpParams, SequenceSpec, Strategy, fem_pair_2d, talbot_shifts,
)
from samkit.harness import COMPUTE_SAM, RECOMPUTE

ILUTP = IlutpParams(lfil=20, droptol=1e-3, pivtol=1.0)
PATTERN = "ref"
REFRESH_PERIOD = 4
ARMS = ("recompute", "reuse", "map", "refresh", "map2")


def arm_strategy(arm, count, nproc):
    """(strategy, sam_workers) of one arm for a sequence of ``count`` systems."""
    if arm == "recompute":
        return Strategy.recompute_every(), 1
    if arm == "reuse":
        return Strategy.reuse_first(), 1
    if arm == "map":
        return Strategy.sam_every(), 1
    if arm == "refresh":
        events = [(k, RECOMPUTE if k % REFRESH_PERIOD == 0 else COMPUTE_SAM) for k in range(count)]
        return Strategy.at_events(events), 1
    if arm == "map2":
        return Strategy.sam_every(), min(2, nproc)
    raise ValueError(f"unknown arm {arm!r}")


def random_rhs(rng, n):
    b = rng.standard_normal(n)
    return b / np.linalg.norm(b)


def smooth_kappa(rng):
    """exp(0.3 s(x, y)) for a random 3x3 sine series s with |s| <= 1 on the unit square."""
    coef = rng.standard_normal((3, 3))
    coef /= np.abs(coef).sum()
    freq = math.pi * np.arange(1, 4)

    def kappa(x, y):
        return math.exp(0.3 * float(np.sin(freq * y) @ coef @ np.sin(freq * x)))
    return kappa


def helmholtz_sweep(seed, toy=False):
    nx, count = (4, 6) if toy else (10, 200)
    spec = SequenceSpec.helmholtz(nx, nx, delta_s=0.01, count=count)
    if seed == 0:
        return spec
    rhs = random_rhs(np.random.default_rng(seed), spec.n)
    return SequenceSpec(spec.kind, spec.matrices, spec.shifts, rhs)


def talbot_pair(nx, n_z, seed):
    rng = np.random.default_rng(seed)
    kappa = None if seed == 0 else smooth_kappa(rng)
    K, M = fem_pair_2d(nx, nx, kappa)
    rhs = None if seed == 0 else random_rhs(rng, K.shape[0])
    return SequenceSpec.shifted_pair(K, M, talbot_shifts(n_z, 0.01), rhs=rhs)


def talbot_fem32(seed, toy=False):
    return talbot_pair(6, 8, seed) if toy else talbot_pair(32, 40, seed)


def talbot_fem128(seed, toy=False):
    return talbot_pair(8, 6, seed) if toy else talbot_pair(128, 12, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # build(seed, toy=False) -> SequenceSpec
    gmres: GmresConfig


WORKLOADS = {w.name: w for w in (
    Workload("helmholtz-sweep", helmholtz_sweep,
             GmresConfig(restart=100, rel_tol=1e-10, max_total_iters=100)),
    Workload("talbot-fem32", talbot_fem32,
             GmresConfig(restart=50, rel_tol=1e-8, max_total_iters=500)),
    Workload("talbot-fem128", talbot_fem128,
             GmresConfig(restart=50, rel_tol=1e-8, max_total_iters=500)),
)}
