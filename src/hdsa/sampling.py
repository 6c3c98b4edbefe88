"""Deterministic seeded sampling for parameters and probes.

Every random draw is keyed by (master seed, structured key) through a
counter-based Philox generator, so results are independent of the order
in which samples and probes are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SamplingError(Exception):
    pass


# Purpose keys: the first key of every stream names what it is drawn for, so
# streams of different purposes cannot collide whatever the other keys are.
THETA_STREAM = 0  # (THETA_STREAM, j): parameter sample j
# key 1 is retired: renumbering the keys after it would change every probe
PROBE_STREAM = 2  # (PROBE_STREAM, j, i): range-finder probe i of sample j
VERIFY_STREAM = 3  # (VERIFY_STREAM,): directions of the adjoint check
SQUARED_PROBE_STREAM = 4  # (SQUARED_PROBE_STREAM, j, i): squared formulation
SET_PROBE_STREAM = 5  # (SET_PROBE_STREAM, j, set, i): direct set indices
KKT_NORM_STREAM = 6  # (KKT_NORM_STREAM,): the ||K|| probes of every KKT operator


def rng_for(master_seed: int, *key: int) -> np.random.Generator:
    """Generator deterministically keyed by (master_seed, *key)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Distribution:
    """Per-coordinate scalar distribution: uniform[a, b] or normal(mu=a, sigma=b)."""

    kind: str = "uniform"
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise SamplingError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "uniform" and self.b < self.a:
            raise SamplingError("uniform distribution needs b >= a")
        if self.kind == "normal" and self.b < 0:
            raise SamplingError("normal distribution needs sigma b >= 0")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` independent draws, one per coordinate."""
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, n)
        return self.a + self.b * rng.standard_normal(n)


@dataclass
class SamplingPlan:
    """The distribution of each of the n_theta coordinates, drawn independently."""

    dist: Distribution
    n_theta: int
    master_seed: int = 0

    def sample(self, j: int) -> np.ndarray:
        """Parameter sample j: a deterministic function of (master_seed, j),
        independent across j."""
        return self.dist.draw(rng_for(self.master_seed, THETA_STREAM, j), self.n_theta)


@dataclass
class InitialIterate:
    u_init: np.ndarray
    z_init: np.ndarray


def probe_vector(
    master_seed: int, key: tuple[int, ...], probe_i: int, dim: int
) -> np.ndarray:
    """Standard-normal probe ``probe_i`` of the stream keyed by (seed, *key).

    ``key`` starts with a purpose key, e.g. ``(PROBE_STREAM, sample_j)``.
    """
    return rng_for(master_seed, *key, probe_i).standard_normal(dim)
