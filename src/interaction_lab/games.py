"""Players, coalitions, masking semantics, and closed-form oracle games.

A "player" is one input dimension; a game has n players, 2 <= n <= 64. A
coalition S is the set of unmasked players, held as one unsigned 64-bit
mask: bit k is set when player k is in S. Everything outside S is replaced
by a per-variable baseline value. A game is v(S) of one input, which it
holds: ValueFunction.evaluate_many takes only an array of masks (numpy
uint64, or Python ints) and returns one value per mask. Synthetic polynomial
games evaluate v(S) exactly from a term list and serve as ground truth for
the interaction estimators.
"""
from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

MAX_PLAYERS = 64  # a coalition is one uint64 mask
MAX_ARRAY_ITEMS = np.iinfo(np.intp).max // 8  # 8-byte items numpy can index
_PLAYER_BITS = np.uint64(1) << np.arange(MAX_PLAYERS, dtype=np.uint64)


def check_player_count(n: int) -> int:
    """n itself, once it is a player count a uint64 mask can hold."""
    if not (2 <= n <= MAX_PLAYERS):
        raise DomainError(f"player count must be in [2, {MAX_PLAYERS}], got {n}")
    return n


def as_masks(bits, n: int) -> np.ndarray:
    """bits as a uint64 array, checked to name only players 0..n-1."""
    masks = np.asarray(bits, dtype=np.uint64)
    if np.any(masks & ~np.uint64((1 << check_player_count(n)) - 1)):
        raise DomainError(f"mask names a player outside [0, {n})")
    return masks


@dataclass
class Baseline:
    """Per-variable replacement value for masked-out players (feature units)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()
        if self.values.ndim != 1:
            raise DimensionError("baseline must be a flat vector")
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def zeros(cls, n: int) -> "Baseline":
        return cls(np.zeros(n))


def masked_matrix(x, bits, b: Baseline) -> np.ndarray:
    """One row per mask: x on the mask's players, the baseline elsewhere.

    x is one sample of length n, or one sample per mask as a (len(bits), n)
    matrix.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if len(b) != n:
        raise DimensionError("sample and baseline lengths differ")
    masks = as_masks(bits, n).reshape(-1)
    if x.ndim == 2 and len(x) != len(masks):
        raise DimensionError(f"{len(x)} samples for {len(masks)} masks")
    keep = (masks[:, None] & _PLAYER_BITS[:n]) != 0
    return np.where(keep, x, b.values)


def compute_baseline(dataset) -> Baseline:
    """Column means of a feature matrix."""
    data = np.asarray(dataset, dtype=float)
    if data.size == 0:
        raise ValidationError("cannot compute a baseline from an empty dataset")
    if data.ndim != 2:
        raise DimensionError("dataset must be a 2-d feature matrix")
    return Baseline(data.mean(axis=0))


def _members(pool: int) -> np.ndarray:
    """The pool's player bits in ascending order."""
    return _PLAYER_BITS[(np.uint64(pool) & _PLAYER_BITS) != 0]


def sample_subsets(pool: int, sizes: tuple[int, ...], count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """count nested uniform sub-masks of the pool mask, one row per size, as uint64.

    Draw k permutes the pool's players in ascending order and row r keeps the
    first sizes[r], so with sizes (s1, s2) each S1 is uniform inside its S2.
    All draws come from one rng.permuted call, which shuffles row by row with
    the same draws as one rng.permutation per row: draw k and the generator's
    end state equal those of count calls of rng.permutation(members). An
    identical stream gives identical subsets; more draws than numpy can
    index raise DomainError.
    """
    members = _members(pool)
    for m in sizes:
        if not (0 <= m <= len(members)):
            raise DomainError(f"subset size {m} outside [0, {len(members)}]")
    if count * len(members) > MAX_ARRAY_ITEMS:
        raise DomainError(f"{count} draws of {len(members)} players exceed numpy's index range")
    order = rng.permuted(np.broadcast_to(members, (count, len(members))), axis=1)
    return np.stack([order[:, :m].sum(axis=1, dtype=np.uint64) for m in sizes])


class ValueFunction(ABC):
    """Deterministic, side-effect-free masked-input score v(S) of one input.

    evaluate_many(bits) takes an array of coalition masks (bit k set when
    player k is unmasked) and returns one float per mask. A game that scores
    a model on a sample holds that sample itself.
    """

    n: int

    @abstractmethod
    def evaluate_many(self, bits) -> np.ndarray:
        ...


@dataclass
class SyntheticGame:
    """Closed-form polynomial game spec: v(S) = sum of coeff(T) over terms T in S.

    additive holds one degree-1 term per player, conjunction a single unit
    term on the required coalition, random_polynomial a seeded list of
    distinct-coalition terms of bounded degree. Each term's coalition is
    held as a sorted tuple of player indices; any iterable of indices (a
    frozenset, say) is accepted and normalized.
    """

    n: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        self.terms = tuple((tuple(sorted({int(k) for k in coalition})), coeff)
                           for coalition, coeff in self.terms)
        seen = set()
        for coalition, coeff in self.terms:
            if coalition in seen:
                raise ValidationError("term coalitions must be distinct")
            seen.add(coalition)
            if not np.isfinite(coeff):
                raise ValidationError("term coefficients must be finite")
            for k in coalition:
                if not (0 <= k < self.n):
                    raise ValidationError(f"term index {k} outside [0, {self.n})")

    @classmethod
    def additive(cls, coefficients: Sequence[float]) -> "SyntheticGame":
        coeffs = [float(a) for a in coefficients]
        terms = tuple(((k,), a) for k, a in enumerate(coeffs))
        return cls(n=len(coeffs), terms=terms)

    @classmethod
    def conjunction(cls, n: int, coalition: Sequence[int]) -> "SyntheticGame":
        return cls(n=n, terms=((tuple(coalition), 1.0),))

    @classmethod
    def random_polynomial(cls, n: int, degree: int, num_terms: int, seed: int) -> "SyntheticGame":
        """Seeded draw of num_terms distinct coalitions (sizes 0..degree), N(0,1) coefficients."""
        from .rng import make_rng

        if not (1 <= degree <= n):
            raise ValidationError(f"degree must be in [1, {n}]")
        rng = make_rng(seed)
        pool: list[tuple[int, ...]] = [()]
        for d in range(1, degree + 1):
            pool.extend(itertools.combinations(range(n), d))
        if num_terms > len(pool):
            raise ValidationError(f"at most {len(pool)} distinct coalitions exist")
        chosen = rng.permutation(len(pool))[:num_terms]
        terms = tuple((pool[int(k)], float(rng.normal())) for k in sorted(chosen))
        return cls(n=n, terms=terms)


class PolynomialGame(ValueFunction):
    """Exact evaluator for a SyntheticGame; v(S) = sum of coefficients of terms inside S."""

    def __init__(self, spec: SyntheticGame):
        self.n = check_player_count(spec.n)
        self._term_bits = np.array(
            [sum(1 << k for k in coal) for coal, _ in spec.terms], dtype=np.uint64)
        self._coeffs = np.array([c for _, c in spec.terms], dtype=float)

    def evaluate_many(self, bits) -> np.ndarray:
        bits = as_masks(bits, self.n).reshape(-1, 1)
        inside = (self._term_bits[None, :] & bits) == self._term_bits[None, :]
        # row-wise reduction keeps each value independent of batch size
        return (inside * self._coeffs).sum(axis=1)


def synthetic_game(spec: SyntheticGame) -> PolynomialGame:
    return PolynomialGame(spec)
