"""Two-photon interference analytics.

Hong-Ou-Mandel visibility from exact state overlaps, Gaussian-envelope dip
curves, visibility estimation by least squares, and visibility sweeps over
pairs of processes.  The overlap magnitude sqrt(v) and the minimum
coincidence probability (1 - v) / 2 follow from the visibility v and are
computed where they are written out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import run_circuit
from .constants import TOL
from .errors import (
    DimensionMismatch,
    FitDidNotConverge,
    InternalError,
    InvalidParameter,
)
from .markov import CausalState, PerturbedCoin, float_or_array, require
from .quantum import PhotonState, require_one_state

FIT_MAX_EVALS = 10000  # model evaluations before a fit counts as not converged


def _amplitudes(state: PhotonState) -> np.ndarray:
    # The package's one complex amplitude array, kept on purpose: np.vdot's summation order
    # fixes the last bits of the visibility, and any other dot (a real vdot in either layout,
    # or a complex one over the polarization-major array) changes them for most pairs, and
    # with them the hom-dip and compare-sweep payloads.
    return np.array(state.amplitudes.T, dtype=complex, order="C")


def visibility(psi: PhotonState, phi: PhotonState) -> float:
    """HOM dip visibility: |<phi|psi>|^2 normalized by the actual state norms.

    Numerator and denominator are the same floating-point sums when the two
    amplitude arrays are equal, so identical states give exactly 1.  The
    copies are of real amplitudes, so the overlap's imaginary part is exactly
    zero, and the states are normalized on construction, so no norm is zero.
    """
    for state in (psi, phi):
        require_one_state(state.amplitudes, "visibility")
    a = _amplitudes(psi)
    b = _amplitudes(phi)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    num = float(np.vdot(a, b).real)
    v = (num * num) / (float(np.vdot(a, a).real) * float(np.vdot(b, b).real))
    if v > 1.0 + TOL.state_norm:
        raise InternalError(f"squared overlap {v!r} exceeds 1 beyond rounding")
    return min(v, 1.0)


def dip_model(delay_ns, baseline: float, vis: float, sigma_ns: float, center_ns: float = 0.0):
    """Expected coincidences versus relative delay:
    baseline * (1 - v * exp(-(tau - center)^2 / (2 sigma^2))).
    """
    tau = np.asarray(delay_ns, dtype=float) - center_ns
    # numpy's square of a huge sigma overflows to inf (under the caller's errstate), Python's raises
    return baseline * (1.0 - vis * np.exp(-(tau**2) / (2.0 * np.float64(sigma_ns) ** 2)))


def dip_curve_from_visibility(
    vis: float,
    envelope_sigma_ns: float,
    delays_ns,
    baseline: float,
) -> np.ndarray:
    """Expected coincidence counts at each delay of `delays_ns`, checked to be finite."""
    if envelope_sigma_ns <= 0.0:
        raise InvalidParameter(f"envelope sigma must be positive, got {envelope_sigma_ns}")
    if baseline <= 0.0:
        raise InvalidParameter(f"baseline must be positive, got {baseline}")
    if not 0.0 <= vis <= 1.0:
        raise InvalidParameter(f"visibility must be in [0, 1], got {vis}")
    with np.errstate(all="ignore"):  # e.g. a sigma whose square underflows gives 0/0 at zero delay
        counts = dip_model(delays_ns, baseline, vis, envelope_sigma_ns)
    if not np.isfinite(counts).all():
        raise InvalidParameter(f"the dip curve is not finite at envelope sigma {envelope_sigma_ns} ns")
    return counts


@dataclass(frozen=True)
class VisibilityFit:
    """Least-squares estimate of the dip parameters."""

    visibility: float
    visibility_err: float
    baseline: float
    sigma_ns: float
    center_ns: float


def fit_visibility(delays, counts) -> VisibilityFit:
    """Fit the dip model to the counts at each delay: two 1-d arrays of one length.

    Free parameters: baseline, visibility, envelope sigma and dip center.
    The points are weighted by Poisson sqrt(counts) errors, taken as
    absolute, which gives calibrated uncertainties on counting data.
    """
    from scipy.optimize import OptimizeWarning, curve_fit  # here: most of `import qcoin`'s time

    delays, counts = np.asarray(delays, dtype=float), np.asarray(counts, dtype=float)
    if delays.ndim != 1 or delays.shape != counts.shape or delays.size < 5:
        raise InvalidParameter(f"need 5+ delays and a count at each, got shapes {delays.shape} and {counts.shape}")
    require(np.isfinite(delays).all() and np.isfinite(counts).all(), "delays and counts must be finite")
    top = float(counts.max())
    if top <= 0.0:
        raise InvalidParameter("counts must contain positive values")
    center0 = float(delays[int(np.argmin(counts))])
    vis0 = min(max(1.0 - float(counts.min()) / top, 0.0), 1.0)
    span = float(delays.max() - delays.min())
    sigma0 = span / 6.0 if span > 0.0 else 1.0
    weights = np.sqrt(np.clip(counts, 1.0, None))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(
                dip_model,
                delays,
                counts,
                p0=[top, vis0, sigma0, center0],
                sigma=weights,
                absolute_sigma=True,
                maxfev=FIT_MAX_EVALS,
            )
    except RuntimeError as exc:
        raise FitDidNotConverge(str(exc)) from exc
    return VisibilityFit(
        visibility=float(popt[1]),
        visibility_err=float(np.sqrt(pcov[1, 1])),
        baseline=float(popt[0]),
        sigma_ns=abs(float(popt[2])),
        center_ns=float(popt[3]),
    )


def visibility_sweep(fixed: PerturbedCoin, fixed_start: CausalState, coins: PerturbedCoin, starts, steps: int):
    """Interference visibility of one fixed process against each process of a grid coin and its starts
    (a CausalState or start indices that broadcast against the grid), in the grid's shape.

    Visibility is 1 exactly when the pair's future distributions and final
    causal states coincide, which makes the sweep a comparison of the two
    statistical futures.  The grid runs through the circuit kernels as one
    batch, and each entry has the bits of its own pair's `visibility`.
    """
    psi, batch = run_circuit(fixed, fixed_start, steps), run_circuit(coins, starts, steps)
    rows = batch.amplitudes.reshape(-1, 2, 2**steps)
    v = np.array([visibility(psi, PhotonState(steps, row)) for row in rows])
    return float_or_array(v.reshape(batch.amplitudes.shape[:-2]))
