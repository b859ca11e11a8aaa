"""Numerical tolerances and timing constants.

Every tolerance used by the library, the CLI checks and the test suite
lives in one frozen record so that all layers agree on what "equal" means.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    exact: float = 1e-12            # amplitude/matrix equivalences, stationary identities
    prob_sum: float = 1e-9          # distribution normalization
    state_norm: float = 1e-9        # state-vector norms
    psd_floor: float = -1e-12       # density-matrix eigenvalue floor at construction
    entropy_floor: float = -1e-9    # eigenvalue floor before entropy evaluation
    empty_bin: float = 1e-15        # smallest bin probability that can be conditioned on
    entropy_oracle: float = 1e-10   # agreement with the independent eigenvalue oracle
    fit_roundtrip: float = 1e-6     # noiseless visibility-fit recovery


TOL = Tolerances()

# Cap on the step count M of the circuit and of the output superposition,
# whose states hold 2**(M+1) amplitudes.
MAX_SUPERPOSITION_STEPS = 12

# Cap on the step count M of `quantum.output_overlap`, a power of a 2x2
# transfer matrix whose cost is O(log M).  The products round each entry
# with a relative error near M * 2**-53, and 2**13 is the largest power of two
# that keeps this bound (2**-40) below TOL.exact.
MAX_OVERLAP_STEPS = 2**13

# Largest array, in bytes, that one config field may size: the hom-dip delay
# grid holds 8 bytes a delay, the oracle-check (l, m) grid 16 bytes a point.
# The config schema checks both before anything is allocated.
ALLOCATION_BUDGET_BYTES = 2**24

# The long path of block k delays the photon by 2^(k-1) times this base
# delay, so every outcome string maps to a unique arrival time (a 3-step
# run spans 0..14 ns).
FIRST_DELAY_NS = 2.0


def block_delay_ns(step: int) -> float:
    """Delay added by the long path of block `step` (1-based): 2, 4, 8, ... ns."""
    return FIRST_DELAY_NS * float(2 ** (step - 1))
