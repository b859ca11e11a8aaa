"""Classical perturbed-coin process.

Transition structure, stationary weights, exact future distributions,
Monte Carlo sampling, statistical complexity and classical fidelity.

A future distribution is a float64 array over the time-bin index (first
outcome = least-significant bit), built by the doubling recurrence
p_{k+1} = [p_k * T[last, 0], p_k * T[last, 1]].  Per-string enumeration
(`trajectory_probability`) is kept as the brute-force oracle of the tests;
outcome strings appear only at the CSV/JSON edge.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .encoding import all_bitstrings, bits_to_index, index_to_bits, lexicographic_bins, validate_bits
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    ReducibleChain,
    StepCountTooLarge,
)

# Full enumeration of 2**steps outcome strings caps the step count.
MAX_ENUMERATION_STEPS = 20


class CausalState(enum.Enum):
    """Causal state of the perturbed coin: the last emitted outcome."""

    S0 = 0  # last outcome 0 (heads)
    S1 = 1  # last outcome 1 (tails)

    @property
    def index(self) -> int:
        return self.value

    @classmethod
    def from_outcome(cls, outcome: str) -> "CausalState":
        return cls.S1 if outcome == "1" else cls.S0


class WeightMethod(enum.Enum):
    """How stationary causal-state weights are obtained."""

    EXACT_STATIONARY = "exact"      # fixed point of the transition matrix
    THREE_STEP_MARGINAL = "three-step"  # ratio of three-step last-outcome marginals


@dataclass(frozen=True)
class PerturbedCoin:
    """Two-state Markov chain of a perturbed coin.

    `stay_heads` is the probability that a coin showing heads (outcome 0)
    still shows heads after the perturbation; `stay_tails` likewise for
    tails (outcome 1).
    """

    stay_heads: float
    stay_tails: float

    def __post_init__(self) -> None:
        for name, p in (("stay_heads", self.stay_heads), ("stay_tails", self.stay_tails)):
            if not 0.0 <= p <= 1.0:
                raise InvalidParameter(f"{name} must be a probability in [0, 1], got {p}")


def transition_matrix(coin: PerturbedCoin) -> np.ndarray:
    """Row-stochastic matrix T with T[i, j] = P(emit j | causal state S_i)."""
    return np.array(
        [
            [coin.stay_heads, 1.0 - coin.stay_heads],
            [1.0 - coin.stay_tails, coin.stay_tails],
        ]
    )


@dataclass(frozen=True)
class StationaryWeights:
    """Probabilities of finding the memory in causal state S0 / S1.

    `method` records how the weights were obtained; None means they were
    supplied explicitly by the caller (the only option for the reducible
    chain where both stay probabilities are 1).
    """

    s0: float
    s1: float
    method: WeightMethod | None = None

    def __post_init__(self) -> None:
        if self.s0 < 0.0 or self.s1 < 0.0:
            raise InvalidParameter("stationary weights must be nonnegative")
        if abs(self.s0 + self.s1 - 1.0) > TOL.exact:
            raise InvalidParameter(f"stationary weights must sum to 1, got {self.s0 + self.s1!r}")


def stationary_weights(
    coin: PerturbedCoin,
    method: WeightMethod = WeightMethod.EXACT_STATIONARY,
) -> StationaryWeights:
    """Stationary weights of the two causal states.

    EXACT_STATIONARY solves pi = pi T, which for the two-state chain gives
    weights proportional to the opposite state's leave rate.
    THREE_STEP_MARGINAL instead takes the ratio of exact three-step
    last-outcome marginals, d0 = P(X3=0|S1) / (P(X3=1|S0) + P(X3=0|S1)),
    mirroring how the weights are estimated from finite observation windows.

    Raises ReducibleChain when the denominator of the chosen method
    vanishes, which happens exactly when both stay probabilities are 1.
    """
    if method is WeightMethod.EXACT_STATIONARY:
        leave_heads = 1.0 - coin.stay_heads
        leave_tails = 1.0 - coin.stay_tails
        denom = leave_heads + leave_tails
        if denom == 0.0:
            raise ReducibleChain("both stay probabilities are 1; supply weights explicitly")
        return StationaryWeights(leave_tails / denom, leave_heads / denom, method)

    # Added in string order, where the last outcome alternates 0, 1, 0, 1, ...
    in_order = lexicographic_bins(3)
    flip_from_s0 = sum(future_distribution(coin, CausalState.S0, 3).bins[in_order[1::2]].tolist())
    flip_from_s1 = sum(future_distribution(coin, CausalState.S1, 3).bins[in_order[0::2]].tolist())
    denom = flip_from_s0 + flip_from_s1
    if denom == 0.0:
        raise ReducibleChain("both stay probabilities are 1; supply weights explicitly")
    return StationaryWeights(flip_from_s1 / denom, flip_from_s0 / denom, method)


def classical_complexity(weights: StationaryWeights) -> float:
    """Shannon entropy (bits) of the stationary causal-state weights."""
    return _binary_entropy(weights.s0)


def _binary_entropy(p: float) -> float:
    h = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h -= q * math.log2(q)
    return h


def trajectory_probability(coin: PerturbedCoin, start: CausalState, bits: str) -> float:
    """Probability of emitting `bits` starting from causal state `start`.

    After emitting x the chain sits in causal state S_x, so this is the
    product of transition-matrix entries along the path.
    """
    validate_bits(bits)
    t = transition_matrix(coin)
    rows = (t[0], t[1])
    state = start.index
    p = 1.0
    for c in bits:
        x = 1 if c == "1" else 0
        p *= rows[state][x]
        state = x
    return float(p)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of all 2**steps outcome strings, as a read-only float64
    array over the time-bin index (see `encoding`).

    `bins` may also be given as a dict from outcome string to probability,
    the form of the CSV/JSON edge; `probabilities` gives that map back, in
    lexicographic string order.  Zero-probability strings are explicit.
    """

    steps: int
    bins: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.steps <= MAX_ENUMERATION_STEPS:
            raise StepCountTooLarge(f"steps must be in 1..{MAX_ENUMERATION_STEPS}, got {self.steps}")
        size = 2**self.steps
        values = self.bins
        if isinstance(values, dict):
            strings = all_bitstrings(self.steps)
            if set(values) != set(strings):
                raise InvalidParameter(f"expected one entry per outcome string of length {self.steps}")
            # string order to bin order: the bit reversal is its own inverse
            values = np.array([values[bits] for bits in strings])[lexicographic_bins(self.steps)]
        p = np.array(values, dtype=np.float64)
        if p.shape != (size,):
            raise InvalidParameter(f"expected {size} bins for {self.steps} steps, got shape {p.shape}")
        p.flags.writeable = False
        object.__setattr__(self, "bins", p)
        if not (p.min() >= -TOL.exact and p.max() <= 1.0 + TOL.exact):
            b = int(np.argmax(~((p >= -TOL.exact) & (p <= 1.0 + TOL.exact))))
            bits = index_to_bits(b, self.steps)
            raise InvalidParameter(f"probability of {bits!r} out of [0, 1]: {p[b]!r}")
        total = float(p.sum())
        if abs(total - 1.0) > TOL.prob_sum:
            raise InvalidParameter(f"probabilities sum to {total!r}, not 1")

    @property
    def probabilities(self) -> dict[str, float]:
        ordered = self.bins[lexicographic_bins(self.steps)].tolist()
        return dict(zip(all_bitstrings(self.steps), ordered))

    def probability(self, bits: str) -> float:
        return float(self.bins[bits_to_index(bits)])

    def to_json_dict(self) -> dict:
        return {"steps": self.steps, **self.probabilities}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "OutcomeDistribution":
        payload = json.loads(text)
        return cls(int(payload.pop("steps")), {k: float(v) for k, v in payload.items()})


def future_distribution(coin: PerturbedCoin, start: CausalState, steps: int) -> OutcomeDistribution:
    """Exact distribution over all 2**steps outcome strings, by the doubling
    recurrence: the lower half of a k-step array ends in outcome 0, the upper
    half in 1.  Factors multiply in the order of `trajectory_probability`,
    so every bin is bit-identical to it.
    """
    if not 1 <= steps <= MAX_ENUMERATION_STEPS:
        raise StepCountTooLarge(f"steps must be in 1..{MAX_ENUMERATION_STEPS}, got {steps}")
    t = transition_matrix(coin)
    p = t[start.index]
    for _ in range(steps - 1):
        # bins of the next outcome x (major axis) after last outcome y (the halves of p)
        p = (t.T[:, :, None] * p.reshape(2, -1)).ravel()
    return OutcomeDistribution(steps, p)


def sample_trajectories(
    coin: PerturbedCoin,
    start: CausalState,
    steps: int,
    draws: int,
    seed: int,
) -> dict[str, int]:
    """Sample `draws` trajectories of the chain; returns counts per outcome string.

    Counts include explicit zeros for unseen strings.  The same seed always
    reproduces the same counts.
    """
    if draws < 1:
        raise InvalidParameter(f"draws must be >= 1, got {draws}")
    if not 1 <= steps <= MAX_ENUMERATION_STEPS:
        raise StepCountTooLarge(f"steps must be in 1..{MAX_ENUMERATION_STEPS}, got {steps}")
    if seed is None:
        raise InvalidParameter("an explicit seed is required")
    rng = np.random.default_rng(seed)
    emit_zero = transition_matrix(coin)[:, 0]
    states = np.full(draws, start.index, dtype=np.int64)
    bins = np.zeros(draws, dtype=np.int64)
    for k in range(steps):
        emitted = (rng.random(draws) >= emit_zero[states]).astype(np.int64)
        bins |= emitted << k
        states = emitted
    counts = np.bincount(bins, minlength=2**steps)
    return {index_to_bits(b, steps): int(counts[b]) for b in range(2**steps)}


def counts_to_distribution(counts: dict[str, int], steps: int) -> OutcomeDistribution:
    """Empirical distribution from a counts map (explicit zeros included)."""
    total = sum(counts.values())
    if total < 1:
        raise InvalidParameter("counts must contain at least one draw")
    probs = {bits: counts.get(bits, 0) / total for bits in all_bitstrings(steps)}
    return OutcomeDistribution(steps, probs)


def classical_fidelity(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Bhattacharyya coefficient sum_x sqrt(p_x q_x); 1 iff the distributions agree.

    Products rounded below 0 count as 0; terms are added one by one in string order.
    """
    if p.steps != q.steps:
        raise DimensionMismatch(f"step counts differ: {p.steps} vs {q.steps}")
    roots = np.sqrt(np.maximum(p.bins * q.bins, 0.0))
    return float(sum(roots[lexicographic_bins(p.steps)].tolist()))
