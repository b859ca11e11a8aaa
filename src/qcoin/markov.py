"""Classical perturbed-coin process.

Transition structure, stationary weights, exact future distributions,
Monte Carlo sampling, statistical complexity and classical fidelity.

A future distribution is a float64 array over the time-bin index (first
outcome = least-significant bit), built by the doubling recurrence
p_{k+1} = [p_k * T[last, 0], p_k * T[last, 1]].  Per-string enumeration
(`trajectory_probability`) is kept as the brute-force oracle of the tests;
outcome strings appear only at the CSV/JSON edge.  The kernels and
validators take leading batch axes, for the grid passes of `checks` and the
sweep commands of `cli`.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .constants import TOL
from .encoding import all_bitstrings, index_to_bits, lexicographic_bins, validate_bits
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    ReducibleChain,
    StepCountTooLarge,
)

# Full enumeration of 2**steps outcome strings caps the step count.
MAX_ENUMERATION_STEPS = 20
CHUNK_DRAWS = 2**14  # draws per pass; a chunk holds their uniforms, 2 bool masks, 2 bin codes, bincount's intp copy


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None


def require_steps(steps: int, cap: int = MAX_ENUMERATION_STEPS) -> None:
    """The one step-count bound: 1 <= steps <= cap, else StepCountTooLarge; a non-integer is InvalidParameter."""
    if not 1 <= _integer(steps, "steps") <= cap:
        raise StepCountTooLarge(f"steps must be in 1..{cap}, got {steps}")


def require_count(value: int, name: str, low: int) -> None:
    """A seed or a draw count: an integer >= low, else InvalidParameter naming `name`."""
    if _integer(value, name) < low:
        raise InvalidParameter(f"{name} must be >= {low}, got {value}")


class CausalState(enum.Enum):
    """Causal state of the perturbed coin: the last emitted outcome."""

    S0 = 0  # last outcome 0 (heads)
    S1 = 1  # last outcome 1 (tails)

    @property
    def index(self) -> int:
        return self.value


class WeightMethod(enum.Enum):
    """How stationary causal-state weights are obtained."""

    EXACT_STATIONARY = "exact"      # fixed point of the transition matrix
    THREE_STEP_MARGINAL = "three-step"  # ratio of three-step last-outcome marginals


@dataclass(frozen=True)
class PerturbedCoin:
    """Two-state Markov chain of a perturbed coin.

    `stay_heads` is the probability that a coin showing heads (outcome 0)
    still shows heads after the perturbation; `stay_tails` likewise for
    tails (outcome 1).  Both may be arrays of one shape: a grid of coins.
    """

    stay_heads: float
    stay_tails: float

    def __post_init__(self) -> None:
        for name, p in (("stay_heads", self.stay_heads), ("stay_tails", self.stay_tails)):
            outside = np.logical_not((p >= 0.0) & (p <= 1.0))
            if _any(outside):
                raise InvalidParameter(f"{name} must be a probability in [0, 1], got {np.asarray(p)[outside].flat[0]}")


def _any(flags) -> bool:
    """Whether any flag is set; a plain truth test for one value (cheaper than numpy's `.any()`)."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else bool(flags)


def transition_matrix(coin: PerturbedCoin) -> np.ndarray:
    """Row-stochastic T[i, j] = P(emit j | causal state S_i); (..., 2, 2) for a grid of coins."""
    heads, tails = coin.stay_heads, coin.stay_tails
    t = np.array([[heads, 1.0 - heads], [1.0 - tails, tails]])
    return t if t.ndim == 2 else np.moveaxis(t, (0, 1), (-2, -1))


@dataclass(frozen=True)
class StationaryWeights:
    """Probabilities of finding the memory in causal state S0 / S1; the
    caller supplies them explicitly for the reducible chain where both stay
    probabilities are 1.
    """

    s0: float
    s1: float

    def __post_init__(self) -> None:
        _require_weights(self.s0, self.s1)


def _require_weights(s0, s1) -> None:
    """The `StationaryWeights` checks, elementwise."""
    if _any((s0 < 0.0) | (s1 < 0.0)):
        raise InvalidParameter("stationary weights must be nonnegative")
    total = s0 + s1
    off = abs(total - 1.0) > TOL.exact
    if _any(off):
        raise InvalidParameter(f"stationary weights must sum to 1, got {float(np.asarray(total)[off].flat[0])!r}")


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
    s0, s1 = _stationary(coin, method)
    return StationaryWeights(float(s0), float(s1))


def _stationary(coin: PerturbedCoin, method: WeightMethod) -> tuple:
    """Unvalidated (s0, s1) of `stationary_weights`, elementwise over a grid of coins."""
    if method is WeightMethod.EXACT_STATIONARY:
        leave_heads, leave_tails = 1.0 - coin.stay_heads, 1.0 - coin.stay_tails
    else:
        t = transition_matrix(coin)
        bins = next(islice(_recurrence(t[..., None, :, :], t), 2, None))  # 3 steps from S0, S1
        _require_distribution(bins)
        # added one by one in string order, where the last outcome alternates 0, 1, 0, 1, ...
        in_order = lexicographic_bins(3)
        leave_heads = sum(bins[..., 0, b] for b in in_order[1::2])
        leave_tails = sum(bins[..., 1, b] for b in in_order[0::2])
    denom = leave_heads + leave_tails
    if _any(denom == 0.0):
        raise ReducibleChain("both stay probabilities are 1; supply weights explicitly")
    return leave_tails / denom, leave_heads / denom


def classical_complexity(weights: StationaryWeights) -> float:
    """Shannon entropy (bits) of the stationary causal-state weights."""
    return float(_entropy_bits(weights.s0, 1.0 - weights.s0))


def _entropy_bits(*probs):
    """Entropy in bits of (probs[0], probs[1], ...), elementwise, zero terms skipped.

    Uses libm's `math.log2`: np.log2 differs from it in the last bit on some inputs.
    """
    h = 0.0
    for q in probs:
        h = h - (_plogp(q) if isinstance(q, float)
                 else np.array([_plogp(x) for x in q.ravel().tolist()]).reshape(q.shape))
    return h


def _plogp(p: float) -> float:
    return p * math.log2(p) if p > 0.0 else 0.0


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

    `probabilities` maps each outcome string to its probability, in
    lexicographic string order, for the CSV/JSON edge.  Zero-probability
    strings are explicit.
    """

    steps: int
    bins: np.ndarray

    def __post_init__(self) -> None:
        require_steps(self.steps)
        size = 2**self.steps
        p = np.array(self.bins, dtype=np.float64)
        if p.shape != (size,):
            raise InvalidParameter(f"expected {size} bins for {self.steps} steps, got shape {p.shape}")
        p.flags.writeable = False
        object.__setattr__(self, "bins", p)
        _require_distribution(p)

    @property
    def probabilities(self) -> dict[str, float]:
        ordered = self.bins[lexicographic_bins(self.steps)].tolist()
        return dict(zip(all_bitstrings(self.steps), ordered))

    def to_json_dict(self) -> dict:
        return {"steps": self.steps, **self.probabilities}


def _require_distribution(p: np.ndarray) -> None:
    """The `OutcomeDistribution` checks on (..., 2**steps) bins: entries in [0, 1], sums 1."""
    if not (p.min() >= -TOL.exact and p.max() <= 1.0 + TOL.exact):
        b = np.unravel_index(np.argmax(~((p >= -TOL.exact) & (p <= 1.0 + TOL.exact))), p.shape)
        bits = index_to_bits(int(b[-1]), p.shape[-1].bit_length() - 1)
        raise InvalidParameter(f"probability of {bits!r} out of [0, 1]: {p[b]!r}")
    total = p.sum(axis=-1)
    off = abs(total - 1.0) > TOL.prob_sum
    if _any(off):
        raise InvalidParameter(f"probabilities sum to {float(np.asarray(total)[off].flat[0])!r}, not 1")


def _recurrence(t: np.ndarray, first: np.ndarray):
    """Yield the future bins after 1, 2, ... steps from (..., 2, 2) transition
    matrices and the first step's (..., 2) row; the lower half of a k-step
    array ends in outcome 0, the upper half in 1.
    """
    # factor of the next outcome x (axis -3) after last outcome y (axis -2, the halves of p)
    factors = t.mT[..., None]
    lead, p = first.shape[:-1], first
    while True:
        yield p
        p = (factors * p.reshape(lead + (1, 2, -1))).reshape(lead + (-1,))


def future_distribution(coin: PerturbedCoin, start: CausalState, steps: int) -> OutcomeDistribution:
    """Exact distribution over all 2**steps outcome strings, by the doubling
    recurrence.  Factors multiply in the order of `trajectory_probability`,
    so every bin is bit-identical to it.
    """
    require_steps(steps)
    t = transition_matrix(coin)
    return OutcomeDistribution(steps, next(islice(_recurrence(t, t[start.index]), steps - 1, None)))


def sample_trajectories(
    coin: PerturbedCoin,
    start: CausalState,
    steps: int,
    draws: int,
    seed: int,
) -> np.ndarray:
    """Sample `draws` trajectories of the chain; int64 counts over the time-bin
    index, zeros included, the same for the same seed.  Step k reads uniforms
    k*draws .. (k+1)*draws - 1 of the seed's PCG64 stream through its own
    advanced generator, one `CHUNK_DRAWS` chunk at a time, and emits 1 where
    u >= emit_zero[last outcome], i.e. (u >= high) | ((u >= low) & last outcome
    selects low) for low, high = sorted(emit_zero): exact at ties, with no gather.
    """
    require_count(draws, "draws", 1)
    require_steps(steps)
    require_count(seed, "seed", 0)
    if np.ndim(coin.stay_heads) or np.ndim(coin.stay_tails):
        raise InvalidParameter(f"sample_trajectories takes one coin, got a grid: {coin!r}")
    emit_zero = transition_matrix(coin)[:, 0]
    low, high = sorted(emit_zero.tolist())
    select = np.logical_and if emit_zero[1] < emit_zero[0] else np.greater  # a & e, or a & ~e as bool a > e
    streams = [np.random.Generator(np.random.PCG64(seed).advance(k * draws)) for k in range(steps)]
    counts = np.zeros(2**steps, dtype=np.int64)
    code_type = np.min_scalar_type(counts.size - 1)
    size = min(CHUNK_DRAWS, draws)
    buffers = (np.empty(size), *np.empty((2, size), dtype=bool), *np.empty((2, size), dtype=code_type))
    for lo in range(0, draws, CHUNK_DRAWS):
        u, e, a, code, bit = (b[:draws - lo] for b in buffers)
        streams[0].random(out=u)
        np.copyto(code, np.greater_equal(u, emit_zero[start.index], out=e))
        for k in range(1, steps):
            streams[k].random(out=u)
            select(np.greater_equal(u, low, out=a), e, out=e)
            np.logical_or(e, np.greater_equal(u, high, out=a), out=e)
            np.bitwise_or(code, np.multiply(e, code_type.type(1 << k), out=bit), out=code)
        counts += np.bincount(code, minlength=counts.size)
    return counts


def counts_to_distribution(counts: np.ndarray, steps: int) -> OutcomeDistribution:
    """Empirical distribution from bin-indexed counts."""
    total = int(counts.sum())
    if total < 1:
        raise InvalidParameter("counts must contain at least one draw")
    return OutcomeDistribution(steps, counts / total)


def classical_fidelity(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Bhattacharyya coefficient sum_x sqrt(p_x q_x); 1 iff the distributions agree.

    Products rounded below 0 count as 0; terms are added one by one in string order.
    """
    if p.steps != q.steps:
        raise DimensionMismatch(f"step counts differ: {p.steps} vs {q.steps}")
    roots = np.sqrt(np.maximum(p.bins * q.bins, 0.0))
    return float(sum(roots[lexicographic_bins(p.steps)].tolist()))
