"""Seeded, platform-stable random streams with documented splitting.

Every stochastic routine in the library draws from a PCG64 generator built
here. Child streams are derived by feeding the root seed plus an integer task
path into numpy's SeedSequence, so results are independent of evaluation
order: task index k always gets the same stream.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError


def _seed_sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    for p in (seed, *path):
        if not isinstance(p, (int, np.integer)) or p < 0:
            raise DomainError(f"seed path components must be non-negative ints, got {p!r}")
    return np.random.SeedSequence([int(seed), *map(int, path)])


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *path).

    `path` components index sub-tasks (sample index, pair index, trial index,
    ...). All components must be non-negative integers; the same tuple always
    yields the same stream.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, path)))


def child_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into one derived integer seed.

    Useful when an API takes a plain seed but the caller manages a family of
    sub-tasks (per-sample, per-game, per-step). Same validation and stability
    guarantees as make_rng.
    """
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])
