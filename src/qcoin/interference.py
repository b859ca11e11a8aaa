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

from .circuit import PhotonState, run_circuit
from .constants import TOL
from .errors import (
    DimensionMismatch,
    FitDidNotConverge,
    InternalError,
    InvalidParameter,
)
from .markov import CausalState, PerturbedCoin
from .quantum import IdealOutputState


def _amplitudes(state) -> np.ndarray:
    if isinstance(state, (PhotonState, IdealOutputState)):
        # The package's one complex amplitude array, kept on purpose: np.vdot's summation order
        # fixes the last bits of the visibility, and any other dot (a real vdot in either layout,
        # or a complex one over the polarization-major array) changes them for most pairs, and
        # with them the hom-dip and compare-sweep payloads.
        return np.array(state.amplitudes.T, dtype=complex, order="C")
    return np.asarray(state, dtype=complex)


def visibility(psi, phi) -> float:
    """HOM dip visibility: |<phi|psi>|^2 normalized by the actual state norms.

    Numerator and denominator are the same floating-point sums when the two
    amplitude arrays are equal, so identical states give exactly 1.
    """
    a = _amplitudes(psi)
    b = _amplitudes(phi)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    num = complex(np.vdot(a, b))
    if abs(num.imag) > TOL.imag_residue:
        raise InternalError(f"state overlap has imaginary residue {num.imag!r}")
    norms = float(np.vdot(a, a).real) * float(np.vdot(b, b).real)
    if norms == 0.0:
        raise InvalidParameter("cannot normalize the overlap of a zero-norm state")
    v = (num.real * num.real) / norms
    if v > 1.0 + TOL.state_norm:
        raise InternalError(f"squared overlap {v!r} exceeds 1 beyond rounding")
    return min(v, 1.0)


def dip_model(delay_ns, baseline: float, vis: float, sigma_ns: float, center_ns: float = 0.0):
    """Expected coincidences versus relative delay:
    baseline * (1 - v * exp(-(tau - center)^2 / (2 sigma^2))).
    """
    tau = np.asarray(delay_ns, dtype=float) - center_ns
    return baseline * (1.0 - vis * np.exp(-(tau**2) / (2.0 * sigma_ns**2)))


@dataclass(frozen=True)
class DipCurve:
    """Expected coincidence counts over a grid of relative delays."""

    delays_ns: np.ndarray
    counts: np.ndarray
    envelope_sigma_ns: float
    baseline: float


def dip_curve_from_visibility(
    vis: float,
    envelope_sigma_ns: float,
    delays_ns,
    baseline: float,
) -> DipCurve:
    if envelope_sigma_ns <= 0.0:
        raise InvalidParameter(f"envelope sigma must be positive, got {envelope_sigma_ns}")
    if baseline <= 0.0:
        raise InvalidParameter(f"baseline must be positive, got {baseline}")
    if not 0.0 <= vis <= 1.0:
        raise InvalidParameter(f"visibility must be in [0, 1], got {vis}")
    delays = np.asarray(delays_ns, dtype=float)
    with np.errstate(all="ignore"):  # e.g. a sigma whose square underflows gives 0/0 at zero delay
        counts = dip_model(delays, baseline, vis, envelope_sigma_ns)
    if not np.isfinite(counts).all():
        raise InvalidParameter(f"the dip curve is not finite at envelope sigma {envelope_sigma_ns} ns")
    return DipCurve(delays, counts, envelope_sigma_ns, baseline)


@dataclass(frozen=True)
class VisibilityFit:
    """Least-squares estimate of the dip parameters."""

    visibility: float
    visibility_err: float
    baseline: float
    sigma_ns: float
    center_ns: float


def fit_visibility(samples, max_evals: int = 10000) -> VisibilityFit:
    """Fit the dip model to (delay, counts) samples.

    Free parameters: baseline, visibility, envelope sigma and dip center.
    The points are weighted by Poisson sqrt(counts) errors, taken as
    absolute, which gives calibrated uncertainties on counting data.
    """
    from scipy.optimize import OptimizeWarning, curve_fit  # here: most of `import qcoin`'s time

    data = np.asarray([(float(d), float(c)) for d, c in samples], dtype=float)
    if data.ndim != 2 or data.shape[0] < 5:
        raise InvalidParameter("need at least 5 (delay, counts) samples spanning the dip")
    delays, counts = data[:, 0], data[:, 1]
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
                maxfev=max_evals,
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


def visibility_sweep(
    fixed: tuple[PerturbedCoin, CausalState],
    varying: list[tuple[PerturbedCoin, CausalState]],
    steps: int,
) -> list[float]:
    """Interference visibility of one fixed (coin, start) process against each of a list of others.

    Visibility is 1 exactly when the pair's future distributions and final
    causal states coincide, which makes the sweep a comparison of the two
    statistical futures.
    """
    if not varying:
        raise InvalidParameter("the varying list must be nonempty")
    psi = run_circuit(*fixed, steps)
    return [visibility(psi, run_circuit(coin, start, steps)) for coin, start in varying]
