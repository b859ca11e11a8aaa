"""The tests' independent routes, which no command runs: per-string enumeration, the conditional polarization
of one bin, the gate-level block model, per-string arrival times, the longhand products and overlap that
read only the stay probabilities, and two references of the transfer-matrix overlap: its matrix form, whose
bits the entrywise form must give, and a 60-digit decimal truth.  An outcome string "x1x2...xM" puts its
first outcome in the least-significant bit of its time-bin index."""

import decimal
import itertools
import math
from decimal import Decimal

import numpy as np

from qcoin.circuit import PhotonState, run_circuit
from qcoin.constants import MAX_OVERLAP_STEPS, TOL
from qcoin.errors import DimensionMismatch, InvalidParameter, QCoinError
from qcoin.markov import (CausalState, PerturbedCoin, causal_pair, float_or_array, require_broadcast, require_one_coin,
                          require_steps, start_rows, transition_matrix)
from qcoin.quantum import DensityMatrix2, require_one_state


class EmptyBin(QCoinError):
    """Conditioning on a time bin that carries negligible probability."""


# The long path of block k delays the photon by 2^(k-1) times this base
# delay, so every outcome string maps to a unique arrival time (a 3-step
# run spans 0..14 ns).
FIRST_DELAY_NS = 2.0


def block_delay_ns(step: int) -> float:
    """Delay added by the long path of block `step` (1-based): 2, 4, 8, ... ns."""
    return FIRST_DELAY_NS * float(2 ** (step - 1))


def validate_bits(bits: str) -> str:
    if not bits or any(c not in "01" for c in bits):
        raise InvalidParameter(f"outcome string must be a nonempty run of 0/1, got {bits!r}")
    return bits


def bits_to_index(bits: str) -> int:
    """Time-bin index of an outcome string (first outcome = least-significant bit)."""
    validate_bits(bits)
    return sum(1 << k for k, c in enumerate(bits) if c == "1")


def arrival_time_ns(bits: str) -> float:
    """Physical arrival time of an outcome string: sum of the long-path delays taken."""
    validate_bits(bits)
    return sum(block_delay_ns(k + 1) for k, c in enumerate(bits) if c == "1")


def arrival_times_ns(steps: int) -> np.ndarray:
    """Arrival time of every time bin: block k's long path adds FIRST_DELAY_NS * 2^(k-1), so bin b arrives at
    FIRST_DELAY_NS * b."""
    return FIRST_DELAY_NS * np.arange(2**steps, dtype=float)


def trajectory_probability(coin: PerturbedCoin, start: CausalState, bits: str) -> float:
    """Probability of emitting `bits` starting from causal state `start`.

    After emitting x the chain sits in causal state S_x, so this is the
    product of transition-matrix entries along the path.
    """
    require_one_coin(coin, "trajectory_probability")
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


def longhand_probability(l: float, m: float, start: int, bits: str) -> float:
    """Probability of `bits` from the causal state of index `start`, written out longhand from the stay
    probabilities l and m alone, with no package function."""
    p, s = 1.0, start
    for c in bits:
        if s == 0:
            p *= l if c == "0" else 1.0 - l
        else:
            p *= 1.0 - m if c == "0" else m
        s = 0 if c == "0" else 1
    return p


def longhand_overlap(la: float, ma: float, sa: int, lb: float, mb: float, sb: int, steps: int = 3) -> float:
    """The paper's Eq. 7, the output overlap sum_x sqrt(p_A(x) p_B(x)) <S_xM|T_xM> of two processes, written out
    longhand: `longhand_probability` and the causal states (sqrt(l), sqrt(1 - l)) and (sqrt(1 - m), sqrt(m))."""
    def state(l, m, which):
        return (math.sqrt(l), math.sqrt(1 - l)) if which == 0 else (math.sqrt(1 - m), math.sqrt(m))

    total = 0.0
    for bits in ("".join(t) for t in itertools.product("01", repeat=steps)):
        last = 0 if bits[-1] == "0" else 1
        va, vb = state(la, ma, last), state(lb, mb, last)
        inner = va[0] * vb[0] + va[1] * vb[1]
        total += math.sqrt(longhand_probability(la, ma, sa, bits) * longhand_probability(lb, mb, sb, bits)) * inner
    return total


def matrix_form_overlap(proc_a, start_a, proc_b, start_b, steps: int):
    """`quantum.output_overlap` as it was written on whole (..., 2, 2) arrays, one ufunc per product of rows
    and columns: the reference whose bits the entrywise square-and-multiply must give, one coin or a grid."""
    steps = require_steps(steps, MAX_OVERLAP_STEPS)
    ta, tb = transition_matrix(proc_a.coin), transition_matrix(proc_b.coin)
    pa, pb = causal_pair(proc_a.coin), causal_pair(proc_b.coin)
    ua, ub = start_rows(ta, start_a), start_rows(tb, start_b)
    require_broadcast(ua.shape, ub.shape, "output_overlap: side a, side b")  # then the coins broadcast too
    finals = pa[..., 0] * pb[..., 0] + pa[..., 1] * pb[..., 1]  # <S_j|T_j> per j
    k, row = np.sqrt(ta * tb), np.sqrt(ua * ub)
    for bit in range((steps - 1).bit_length()):  # k is K^(2^bit)
        if (steps - 1) >> bit & 1:
            row = row[..., 0, None] * k[..., 0, :] + row[..., 1, None] * k[..., 1, :]
        k = k[..., :, 0, None] * k[..., 0, None, :] + k[..., :, 1, None] * k[..., 1, None, :]
    return float_or_array(row[..., 0] * finals[..., 0] + row[..., 1] * finals[..., 1])


def decimal_overlap(la: float, ma: float, sa: int, lb: float, mb: float, sb: int, steps: int,
                    digits: int = 60) -> Decimal:
    """The output overlap u^T K^(steps - 1) c of one pair in `digits`-digit decimal arithmetic, each stay
    probability taken exactly: the truth that the transfer route's rounding is measured against.  Here
    c_j = <S_j|T_j> = K_j0 + K_j1, since the causal-state entries are the square roots of T's."""
    with decimal.localcontext() as context:
        context.prec = digits
        ta, tb = ([[Decimal(l), 1 - Decimal(l)], [1 - Decimal(m), Decimal(m)]] for l, m in ((la, ma), (lb, mb)))
        k = [[(ta[i][j] * tb[i][j]).sqrt() for j in range(2)] for i in range(2)]
        finals = [k[0][0] + k[0][1], k[1][0] + k[1][1]]
        row = [(ta[sa][j] * tb[sb][j]).sqrt() for j in range(2)]
        power = steps - 1
        while power:
            if power & 1:
                row = [row[0] * k[0][j] + row[1] * k[1][j] for j in range(2)]
            k = [[k[i][0] * k[0][j] + k[i][1] * k[1][j] for j in range(2)] for i in range(2)]
            power >>= 1
        return row[0] * finals[0] + row[1] * finals[1]


def conditional_polarization(state: PhotonState, bits: str) -> DensityMatrix2:
    """Polarization state conditioned on the photon arriving in the bin of `bits`.

    Noise-free equivalent of the tomographic reconstruction at one arrival
    time; always the projector onto the causal state of the final outcome.
    """
    require_one_state(state.amplitudes, "conditional_polarization")
    index = bits_to_index(bits)
    if len(bits) != state.steps_applied:
        raise DimensionMismatch(
            f"outcome string {bits!r} has {len(bits)} outcomes, the state {state.steps_applied} steps")
    row = state.amplitudes[:, index]
    p = float((row * row).sum())
    if p <= TOL.empty_bin:
        raise EmptyBin(f"bin for {bits!r} carries probability {p!r}")
    row = row * (1.0 / math.sqrt(p))
    return DensityMatrix2(np.outer(row, row))


def block_gate_unitary(coin: PerturbedCoin) -> np.ndarray:
    """Gate-level model of one block on the basis |memory> x |outcome>, as a real float64 (4, 4) matrix.

    Composition: a controlled-X copying the memory onto the fresh outcome
    qubit, a rotation R on the memory with R|0> = |S0>, and an
    outcome-controlled V with V R|1> = |S1>.  R and V are only fixed up to
    signs on the orthogonal subspace; the real-rotation solution is
    used here.  Basis index is 2*memory + outcome.
    """
    require_one_coin(coin, "block_gate_unitary")
    root_stay = math.sqrt(coin.stay_heads)
    root_flip = math.sqrt(1.0 - coin.stay_heads)
    r = np.array([[root_stay, -root_flip], [root_flip, root_stay]])
    r_one = r @ np.array([0.0, 1.0])
    s1 = causal_pair(coin)[CausalState.S1.index]
    delta = math.atan2(s1[1], s1[0]) - math.atan2(r_one[1], r_one[0])
    v = np.array([[math.cos(delta), -math.sin(delta)], [math.sin(delta), math.cos(delta)]])
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    cv = np.eye(4)
    for mem_out in range(2):
        for mem_in in range(2):
            cv[2 * mem_out + 1, 2 * mem_in + 1] = v[mem_out, mem_in]
    return cv @ np.kron(r, np.eye(2)) @ cx


def gate_decomposition_max_deviation(coin: PerturbedCoin) -> float:
    """Largest amplitude difference between the gate-level block and the
    optical block map, over both input causal states.
    """
    require_one_coin(coin, "gate_decomposition_max_deviation")
    u = block_gate_unitary(coin)
    pair = causal_pair(coin)
    worst = 0.0
    for start in CausalState:
        gate_out = u @ np.kron(pair[start.index], np.array([1.0, 0.0]))
        block_out = run_circuit(coin, start, 1).amplitudes  # (memory, outcome)
        for outcome in range(2):
            for mem in range(2):
                dev = abs(gate_out[2 * mem + outcome] - block_out[mem, outcome])
                worst = max(worst, dev)
    return worst
