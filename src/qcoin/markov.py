"""Classical perturbed-coin process.

Transition structure and causal-state pair, stationary weights, exact future
distributions, Monte Carlo sampling, statistical complexity and classical fidelity.

A future distribution is a float64 array over the time-bin index (first
outcome = least-significant bit), built by the doubling recurrence
p_{k+1} = [p_k * T[last, 0], p_k * T[last, 1]].  Per-string enumeration, its
brute-force oracle, lives with the tests in `tests/oracles.py`.
The functions return arrays; only `cli` writes outcome strings and JSON.

One function per concept serves one coin and a grid: a `PerturbedCoin` may
hold arrays (leading batch axes), a start is a `CausalState` or an integer
array of state indices that broadcasts against the coin, and the result
dataclasses take the same leading axes and validate them in `__post_init__`.
A float-valued function returns a float for one coin and an ndarray for a
grid.  `sample_trajectories` takes one coin and one start.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import MAX_ENUMERATION_STEPS, TOL
from .encoding import index_to_bits, lexicographic_bins
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    ReducibleChain,
    StepCountTooLarge,
)

# ReducibleChain's message; complexity-sweep writes it as the error row of l = m = 1.
REDUCIBLE_CHAIN = "both stay probabilities are 1; supply weights explicitly"
CHUNK_DRAWS = 2**14  # draws per pass; a chunk holds their uniforms, 2 bool masks, 2 bin codes, bincount's intp copy


def _integer(value, name: str) -> int:
    try:
        if type(value) is not bool:  # operator.index reads a Python bool as 0 or 1; numpy's bool it refuses
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidParameter(f"{name} must be an integer, got {value!r}")


def require_steps(steps: int, cap: int = MAX_ENUMERATION_STEPS, low: int = 1, name: str = "steps") -> int:
    """The one step bound: `steps` as an int in low..cap, else StepCountTooLarge; a non-integer is InvalidParameter."""
    if low <= (count := _integer(steps, name)) <= cap:
        return count
    raise StepCountTooLarge(f"{name} must be in {low}..{cap}, got {steps}")


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
    The coin holds read-only float64 copies of array inputs, and builds its
    transition matrix and causal pair once, at their first use.
    """

    stay_heads: float
    stay_tails: float

    def __post_init__(self) -> None:
        heads = owned(self.stay_heads, "stay_heads")
        tails = owned(self.stay_tails, "stay_tails", (), getattr(heads, "shape", ()))  # a float has shape ()
        require((heads >= 0.0) & (heads <= 1.0), "stay_heads must be a probability in [0, 1], got {}", heads)
        require((tails >= 0.0) & (tails <= 1.0), "stay_tails must be a probability in [0, 1], got {}", tails)
        object.__setattr__(self, "stay_heads", heads)
        object.__setattr__(self, "stay_tails", tails)

    @cached_property
    def _transition(self) -> np.ndarray:
        heads, tails = self.stay_heads, self.stay_tails
        t = np.array([[heads, 1.0 - heads], [1.0 - tails, tails]])
        return read_only(t.transpose(*range(2, t.ndim), 0, 1))

    @cached_property
    def _causal_pair(self) -> np.ndarray:
        pair = np.sqrt(transition_matrix(self))
        for a, b in ((pair[..., 0, 0], pair[..., 0, 1]), (pair[..., 1, 0], pair[..., 1, 1])):  # one coin: scalars
            squared = a * a + b * b
            require(abs(squared - 1.0) <= TOL.exact, "causal-state vector is not normalized: |.|^2 = {!r}", squared)
        return read_only(pair)


def read_only(array: np.ndarray) -> np.ndarray:
    """`array`, made read-only, and so every view of it."""
    array.flags.writeable = False
    return array


def as_array(value, what: str) -> np.ndarray:
    """`np.asarray(value)`; a ragged list, a bare ValueError in numpy, is InvalidParameter naming `what`."""
    try:
        return np.asarray(value)
    except ValueError as exc:
        raise InvalidParameter(f"{what} must be a real number or array: {exc}") from None


def owned(value, what: str, shape: tuple = (), batch=None):
    """A number as a float; an array or list as a read-only C-ordered float64 copy with no empty axis, whose last axes
    are `shape` and leading axes `batch` if given, so no later write to the caller's array reaches the holder.
    Complex, string, object or ragged input is refused with InvalidParameter naming `what`: real float64 only."""
    if type(value) is float and not shape and not batch:  # one coin's probability: no array to build
        return value
    array = as_array(value, what)
    if array.dtype.kind not in "biuf":
        raise InvalidParameter(f"{what} must be real, got dtype {array.dtype}")
    lead = tuple(filter(None, array.shape[:array.ndim - len(shape)])) if batch is None else batch  # a 0 axis mismatches
    if array.shape != lead + shape:
        raise InvalidParameter(f"{what} must have shape {lead + shape}, got {array.shape}; no axis may be empty")
    if array.ndim == 0 and not isinstance(value, np.ndarray):
        return float(array)
    return read_only(np.array(array, dtype=float, order="C"))


def require(ok, message: str, values=None, error=InvalidParameter) -> None:
    """Raise `error` unless every flag of `ok` (one flag or an array) is set; with `values`, `message` is
    formatted with the first of them where `ok` is not set, as a Python number.  The checks test the
    accepting range, so NaN fails them.  A plain truth test for one flag is cheaper than numpy's `.all()`."""
    if ok is True or (ok.all() if isinstance(ok, np.ndarray) else ok):  # a Python bool skips the isinstance
        return
    if values is not None:
        message = message.format(np.asarray(values)[np.logical_not(ok)].flat[0].item())
    raise error(message)


def float_or_array(value):
    """A float for one coin, the array for a grid: the one return type of a float-valued function."""
    return float(value) if getattr(value, "ndim", 0) == 0 else value  # a float has no ndim; np.ndim dispatches


def require_broadcast(a: tuple, b: tuple, what: str) -> None:
    """Refuse with DimensionMismatch two batch shapes that do not broadcast; equal shapes return at once."""
    if a != b:
        try:
            np.broadcast_shapes(a, b)
        except ValueError:
            raise DimensionMismatch(f"{what}: shapes {a} and {b} do not broadcast") from None


def require_one_coin(coin: PerturbedCoin, what: str) -> None:
    """Refuse a grid coin where a function takes one coin."""
    if np.ndim(coin.stay_heads):  # both stay probabilities have one shape
        raise InvalidParameter(f"{what} takes one coin, got a grid: {coin!r}")


def transition_matrix(coin: PerturbedCoin) -> np.ndarray:
    """Row-stochastic T[i, j] = P(emit j | causal state S_i); (..., 2, 2) for a grid of coins, read-only."""
    return coin._transition


def causal_pair(coin: PerturbedCoin) -> np.ndarray:
    """Read-only float64 (2, 2) array, (..., 2, 2) for a grid of coins, whose rows are |S0> = (sqrt(l), sqrt(1 - l))
    and |S1> = (sqrt(1 - m), sqrt(m)): the square roots of the rows of T, norms checked at TOL.exact."""
    return coin._causal_pair


@dataclass(frozen=True)
class StationaryWeights:
    """Probabilities of finding the memory in causal state S0 / S1; the
    caller supplies them explicitly for the reducible chain where both stay
    probabilities are 1.  Arrays of one shape are the weights of a grid;
    the weights hold read-only float64 copies of them.
    """

    s0: float
    s1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s0", s0 := owned(self.s0, "s0"))
        object.__setattr__(self, "s1", s1 := owned(self.s1, "s1", (), getattr(s0, "shape", ())))  # a float has ()
        require((s0 >= 0.0) & (s1 >= 0.0), "stationary weights must be nonnegative")
        total = s0 + s1
        require(abs(total - 1.0) <= TOL.exact, "stationary weights must sum to 1, got {!r}", total)


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
    if not isinstance(method, WeightMethod):
        raise InvalidParameter(f"method must be a WeightMethod, got {method!r}")
    if method is WeightMethod.EXACT_STATIONARY:
        leave_heads, leave_tails = 1.0 - coin.stay_heads, 1.0 - coin.stay_tails
    else:
        bins = future_distribution(coin, both_starts(coin), 3).bins
        # added one by one in string order, where the last outcome alternates 0, 1, 0, 1, ...
        in_order = lexicographic_bins(3)
        leave_heads = sum(bins[0, ..., b] for b in in_order[1::2])
        leave_tails = sum(bins[1, ..., b] for b in in_order[0::2])
    denom = leave_heads + leave_tails
    require(denom != 0.0, REDUCIBLE_CHAIN, error=ReducibleChain)
    return StationaryWeights(float_or_array(leave_tails / denom), float_or_array(leave_heads / denom))


def classical_complexity(weights: StationaryWeights) -> float:
    """Shannon entropy (bits) of the stationary causal-state weights."""
    return entropy_bits(weights.s0, 1.0 - weights.s0)


def entropy_bits(*probs):
    """Entropy in bits of (probs[0], probs[1], ...), elementwise, zero terms skipped; a float for numbers.

    Uses libm's `math.log2`: np.log2 differs from it in the last bit on some inputs.
    """
    h = 0.0
    for q in map(np.asarray, probs):
        terms, kept = np.zeros(q.shape), q > 0.0
        positive = q[kept]
        terms[kept] = positive * np.fromiter(map(math.log2, positive.tolist()), float, positive.size)
        h = h - terms
    return float_or_array(h)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of all 2**steps outcome strings, as a read-only float64
    array over the time-bin index (see `encoding`), (..., 2**steps) for a grid.
    Zero-probability bins are explicit.
    """

    steps: int
    bins: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", require_steps(self.steps))
        object.__setattr__(self, "bins", p := owned(self.bins, "bins", (2**self.steps,)))
        if not (p.min() >= -TOL.exact and p.max() <= 1.0 + TOL.exact):
            b = np.unravel_index(np.argmin((p >= -TOL.exact) & (p <= 1.0 + TOL.exact)), p.shape)
            raise InvalidParameter(f"probability of {index_to_bits(int(b[-1]), self.steps)!r} out of [0, 1]: {p[b]!r}")
        total = float_or_array(np.einsum("...i->...", p))  # a check, so its rounding is free
        require(abs(total - 1.0) <= TOL.prob_sum, "probabilities sum to {!r}, not 1", total)


def start_rows(matrix: np.ndarray, start) -> np.ndarray:
    """The rows matrix[..., start, :] of (..., 2, 2) matrices: `start` is a CausalState, or a nonempty integer
    array of state indices (0 or 1) that broadcasts against the matrices' leading axes.  The one reader of a start."""
    if isinstance(start, CausalState):
        return matrix[..., start.index, :]
    index = as_array(start, "start")
    if index.dtype.kind not in "iu" or not index.size or (index >> 1).any():  # a higher bit: not 0 or 1
        raise InvalidParameter(f"a start must be a CausalState or state indices 0 and 1, at least one, got {start!r}")
    try:
        return np.where(index[..., None] == 1, matrix[..., 1, :], matrix[..., 0, :])
    except ValueError:  # caught, not checked first, so a start that broadcasts costs nothing extra
        raise DimensionMismatch(f"starts {index.shape} do not broadcast against coins {matrix.shape[:-2]}") from None


def both_starts(coin: PerturbedCoin) -> np.ndarray:
    """The start indices 0 and 1 on an axis in front of the coin's axes: both starts of every coin."""
    return np.arange(2).reshape((2,) + (1,) * np.ndim(coin.stay_heads))


def future_distribution(coin: PerturbedCoin, start: CausalState, steps: int) -> OutcomeDistribution:
    """Exact distribution over all 2**steps outcome strings, by the doubling
    recurrence.  Factors multiply in the order of the per-string product, so every bin is
    bit-identical to it (tests/test_markov.py::TestFutureDistribution::test_recurrence_equals_enumeration_exactly).
    """
    steps = require_steps(steps)
    t = transition_matrix(coin)
    p = start_rows(t, start)
    lead = p.shape[:-1]
    # The bins run down the first axis and the flattened batch along the last, contiguous, so each
    # multiply runs over whole rows of the batch.  factors[x, y, 0, :] = T[y, x]: the factor of the
    # next outcome x after the last outcome y, which is the half of the bins that q is cut into.
    factors = np.empty((2, 2, 1) + lead)
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        factors[x, y, 0] = t[..., y, x]
    factors = factors.reshape(2, 2, 1, -1)
    q = p.reshape(-1, 2).T
    for _ in range(steps - 1):
        q = (factors * q.reshape(2, -1, q.shape[-1])).reshape(-1, q.shape[-1])
    return OutcomeDistribution(steps, q.T.reshape(lead + (-1,)))


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
    steps = require_steps(steps)
    require_count(seed, "seed", 0)
    require_one_coin(coin, "sample_trajectories")
    first = start_rows(transition_matrix(coin), start)
    require(first.ndim == 1, "sample_trajectories takes one start, not an array of starts")
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
        np.copyto(code, np.greater_equal(u, first[0], out=e))
        for k in range(1, steps):
            streams[k].random(out=u)
            select(np.greater_equal(u, low, out=a), e, out=e)
            np.logical_or(e, np.greater_equal(u, high, out=a), out=e)
            np.bitwise_or(code, np.multiply(e, code_type.type(1 << k), out=bit), out=code)
        counts += np.bincount(code, minlength=counts.size)
    return counts


def counts_to_distribution(counts: np.ndarray, steps: int) -> OutcomeDistribution:
    """Empirical distribution from bin-indexed counts: nonnegative integers, at least one draw."""
    counts = as_array(counts, "counts")
    if counts.dtype.kind not in "iu" or (counts < 0).any() or counts.sum() < 1:
        raise InvalidParameter(f"counts must be nonnegative integers with at least one draw, got {counts!r}")
    return OutcomeDistribution(steps, counts / counts.sum())


def classical_fidelity(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Bhattacharyya coefficient sum_x sqrt(p_x q_x) of two distributions of one step count; 1 iff they agree.

    Products rounded below 0 count as 0; terms are added one by one in string order.
    """
    require_broadcast(p.bins.shape, q.bins.shape, "classical_fidelity: bins of p, q")
    roots = np.sqrt(np.maximum(p.bins * q.bins, 0.0))
    # a running sum: builtin sum over floats is compensated from Python 3.12 on, so its last bits vary
    return float_or_array(np.cumsum(roots[..., lexicographic_bins(p.steps)], axis=-1)[..., -1])
