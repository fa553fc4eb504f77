"""CW-ODMR spectra: synthesis, double-Lorentzian fitting, per-frequency gating.

A spectrum is detected counts versus applied MW frequency. On resonance a
fraction p(f) of the spin population is driven into the MW-on branch, so the
expected counts interpolate between the two gated channel levels:
counts(f) = (1 - p) N0 + p N1 with p a sum of two Lorentzian dips.

The fitted model is counts(f) = baseline * (1 - sum_k depth_k L_k(f)) with
unit-peak Lorentzians L; fitted depths are therefore measured contrast
contributions (population depth times the gated two-level contrast), not the
population depths themselves.

The fitter is a damped least-squares (Levenberg-Marquardt) loop with an
analytic Jacobian, run in shifted/scaled coordinates for conditioning.
Convergence: relative cost change below 1e-10; at most 200 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import FluorescenceModel, GateWindow, PulseTrain, steady_rate
from .errors import FitError, NonConvergenceError
from .histogram import TcspcHistogram
from .metrics import PhysicalConstants, RatePair, sensitivity_cw

MAX_ITERATIONS = 200
COST_REL_TOL = 1e-10


@dataclass(frozen=True)
class OdmrSpectrum:
    """Counts per MW frequency, with the gate used during acquisition."""

    freqs: np.ndarray  # Hz, finite, strictly increasing
    counts: np.ndarray  # finite, non-negative
    integration_per_point: float  # s
    gate: GateWindow | None = None  # None = ungated

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if freqs.ndim != 1 or counts.shape != freqs.shape or freqs.size == 0:
            raise ValueError("freqs and counts must be 1-D arrays of equal, non-zero length")
        for label, values in (("frequency", freqs), ("count", counts)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"non-finite {label} {values[bad[0]]} at point {bad[0]}")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if not self.integration_per_point > 0:
            raise ValueError("integration_per_point must be > 0")
        freqs = freqs.copy()
        counts = counts.copy()
        freqs.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.freqs.size)


@dataclass(frozen=True)
class DoubletTruth:
    """Ground-truth resonance pair for synthesis.

    depth here is the driven population fraction at the dip center (the
    saturation level of that transition), not a count contrast.
    """

    center1: float  # Hz
    fwhm1: float  # Hz
    depth1: float
    center2: float
    fwhm2: float
    depth2: float

    def __post_init__(self):
        if not (self.fwhm1 > 0 and self.fwhm2 > 0):
            raise ValueError("fwhm must be > 0")
        for d in (self.depth1, self.depth2):
            if not 0 <= d <= 1:
                raise ValueError("population depth must be in [0, 1]")

    def population(self, freqs: np.ndarray) -> np.ndarray:
        """Driven population fraction p(f) = sum of the two Lorentzian dips."""
        f = np.asarray(freqs, dtype=float)
        return _lorentz(f, self.center1, self.fwhm1) * self.depth1 + _lorentz(
            f, self.center2, self.fwhm2
        ) * self.depth2


@dataclass(frozen=True)
class LorentzianDoublet:
    """Fitted double-dip model: baseline * (1 - sum depth_k L_k)."""

    baseline: float  # counts
    center1: float  # Hz
    fwhm1: float  # Hz
    depth1: float  # fraction of baseline
    center2: float
    fwhm2: float
    depth2: float

    def __post_init__(self):
        if not self.baseline > 0:
            raise ValueError("baseline must be > 0")
        if not (self.fwhm1 > 0 and self.fwhm2 > 0):
            raise ValueError("fwhm must be > 0")
        for d in (self.depth1, self.depth2):
            if not 0 <= d < 1:
                raise ValueError("depth must be in [0, 1)")

    @property
    def dips(self) -> tuple[tuple[float, float, float], ...]:
        """(center, fwhm, depth) per dip, in stored order."""
        return (
            (self.center1, self.fwhm1, self.depth1),
            (self.center2, self.fwhm2, self.depth2),
        )

    def deeper_dip(self) -> tuple[float, float, float]:
        """Dip with the larger depth; ties resolve to the lower frequency."""
        first, second = sorted(self.dips, key=lambda dip: dip[0])
        return second if second[2] > first[2] else first

    def evaluate(self, freqs) -> np.ndarray:
        f = np.asarray(freqs, dtype=float)
        dip_sum = self.depth1 * _lorentz(f, self.center1, self.fwhm1)
        dip_sum += self.depth2 * _lorentz(f, self.center2, self.fwhm2)
        return self.baseline * (1.0 - dip_sum)


def _lorentz(f: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    """Unit-peak Lorentzian."""
    half_sq = (0.5 * fwhm) ** 2
    return half_sq / ((f - center) ** 2 + half_sq)


def synth_odmr(
    model: FluorescenceModel,
    train: PulseTrain,
    gate: GateWindow | None,
    freqs,
    truth: DoubletTruth,
    integration_per_point: float,
    seed=None,
) -> OdmrSpectrum:
    """Synthesize a CW-ODMR spectrum from gated channel levels.

    Each level is steady_rate * integration_per_point over the gate; gate =
    None means ungated (full period). With a seed the counts are
    Poisson-sampled, otherwise the noiseless expectation is returned.
    """
    freqs = np.asarray(freqs, dtype=float)
    window = GateWindow(0.0) if gate is None else gate
    n0, n1 = (
        steady_rate(model, spin, window.t_start, train, window.t_end) * integration_per_point
        for spin in ("ms0", "ms1")
    )
    p = truth.population(freqs)
    expected = (1.0 - p) * n0 + p * n1
    if seed is not None:
        expected = np.random.default_rng(seed).poisson(expected).astype(float)
    return OdmrSpectrum(
        freqs=freqs, counts=expected, integration_per_point=integration_per_point, gate=gate
    )


def gate_measured_odmr(
    histograms: "list[tuple[float, TcspcHistogram]]", gate: GateWindow
) -> OdmrSpectrum:
    """Offline-gate a per-frequency stack of TCSPC histograms.

    Every histogram must share binning and acquisition parameters; the gate
    must land on bin boundaries (partial bins are rejected, keeping the
    result a plain sum of integer counts and the operation exactly linear).
    """
    if not histograms:
        raise ValueError("no histograms given")
    freqs = np.array([f for f, _ in histograms], dtype=float)
    hists = [h for _, h in histograms]
    first = hists[0]
    for h in hists[1:]:
        if (
            h.bin_width != first.bin_width
            or h.rep_rate != first.rep_rate
            or h.integration_time != first.integration_time
        ):
            raise ValueError("histograms must share bin width, rep rate and integration time")
    counts = np.array([h.gated_total(gate.t_start, gate.t_end) for h in hists])
    return OdmrSpectrum(
        freqs=freqs,
        counts=counts,
        integration_per_point=first.integration_time,
        gate=gate,
    )


def sensitivity_from_fit(
    doublet: LorentzianDoublet,
    rates: RatePair,
    constants: PhysicalConstants | None = None,
) -> float:
    """CW sensitivity using the deeper dip's linewidth."""
    _, fwhm, _ = doublet.deeper_dip()
    return sensitivity_cw(fwhm, rates, constants)


# ---------------------------------------------------------------------------
# Double-Lorentzian fitting


def fit_double_lorentzian(spectrum: OdmrSpectrum) -> tuple[LorentzianDoublet, float]:
    """Fit baseline * (1 - d1 L1 - d2 L2) to a spectrum.

    Returns the fitted doublet (dips ordered by center) and the residual
    2-norm. Raises NonConvergenceError (carrying the last iterate) if the
    damped least-squares loop cannot converge, FitError on degenerate input.
    """
    if len(spectrum) < 7:
        raise ValueError("fit requires at least 7 frequency points")
    y_raw = spectrum.counts
    if np.ptp(y_raw) == 0:
        raise FitError("degenerate spectrum: zero variance")

    f = spectrum.freqs
    f0 = f[0]
    span = f[-1] - f[0]
    x = (f - f0) / span
    y_scale = float(np.median(y_raw))
    if y_scale <= 0:
        y_scale = float(np.max(y_raw))
    y = y_raw / y_scale

    theta = _initial_guess(f, y_raw, f0, span, y_scale)
    theta, cost, failure = _levenberg_marquardt(x, y, theta)

    params = _doublet_params(theta, f0, span, y_scale)
    residual_norm = math.sqrt(cost) * y_scale
    if failure is not None:
        raise NonConvergenceError(failure, last_params=params, residual_norm=residual_norm)
    for center in (params["center1"], params["center2"]):
        if not f[0] <= center <= f[-1]:
            raise NonConvergenceError(
                f"fitted center {center} Hz left the frequency span",
                last_params=params,
                residual_norm=residual_norm,
            )
    try:
        doublet = LorentzianDoublet(**params)
    except ValueError as exc:
        raise NonConvergenceError(
            f"fit left the valid parameter domain: {exc}",
            last_params=params,
            residual_norm=residual_norm,
        ) from exc
    return doublet, residual_norm


def _doublet_params(theta, f0: float, span: float, y_scale: float) -> dict:
    """LorentzianDoublet fields in Hz and counts from the scaled 7-vector,
    dips ordered by center."""
    baseline, c1, w1, d1, c2, w2, d2 = theta
    dips = sorted(
        [(f0 + c1 * span, abs(w1) * span, d1), (f0 + c2 * span, abs(w2) * span, d2)],
        key=lambda dip: dip[0],
    )
    return {
        "baseline": baseline * y_scale,
        "center1": dips[0][0],
        "fwhm1": dips[0][1],
        "depth1": dips[0][2],
        "center2": dips[1][0],
        "fwhm2": dips[1][1],
        "depth2": dips[1][2],
    }


def _initial_guess(f, y, f0, span, y_scale):
    """Starting point: outer-decile baseline, dip centers from the two lowest
    local minima (clustered minima deduplicated), 10 MHz linewidths."""
    n = y.size
    k = max(1, round(0.05 * n))
    baseline = float(np.median(np.concatenate([y[:k], y[-k:]])))
    if baseline <= 0:
        baseline = max(float(np.mean(y)), 1e-12)

    fwhm_init = 10e6  # Hz
    interior = np.arange(1, n - 1)
    is_min = (y[interior] <= y[interior - 1]) & (y[interior] <= y[interior + 1])
    minima = interior[is_min]
    centers: list[float] = []
    for idx in minima[np.argsort(y[minima], kind="stable")]:
        # half-width separation so dips one linewidth apart stay distinct
        if all(abs(f[idx] - c) > 0.5 * fwhm_init for c in centers):
            centers.append(float(f[idx]))
        if len(centers) == 2:
            break
    if len(centers) == 0:
        centers = [float(f[int(np.argmin(y))])]
    if len(centers) == 1:
        centers = [centers[0] - 0.5 * fwhm_init, centers[0] + 0.5 * fwhm_init]
    centers.sort()

    depths = []
    for c in centers:
        y_near = float(y[int(np.argmin(np.abs(f - c)))])
        depths.append(min(max((baseline - y_near) / baseline, 0.01), 0.95))

    return np.array(
        [
            baseline / y_scale,
            (centers[0] - f0) / span,
            fwhm_init / span,
            depths[0],
            (centers[1] - f0) / span,
            fwhm_init / span,
            depths[1],
        ]
    )


def _model_and_jacobian(x, theta):
    baseline, c1, w1, d1, c2, w2, d2 = theta
    jac = np.empty((x.size, 7))
    dip_sum = np.zeros_like(x)
    for k, (c, w, d) in enumerate(((c1, w1, d1), (c2, w2, d2))):
        half_sq = (0.5 * w) ** 2
        dx = x - c
        denom = dx * dx + half_sq
        lorentz = half_sq / denom
        dip_sum += d * lorentz
        base = 1 + 3 * k
        # d/dc, d/dw, d/dd of baseline*(1 - d*L)
        jac[:, base] = -baseline * d * (2.0 * dx * lorentz / denom)
        jac[:, base + 1] = -baseline * d * (0.5 * w * dx * dx / (denom * denom))
        jac[:, base + 2] = -baseline * lorentz
    model = baseline * (1.0 - dip_sum)
    jac[:, 0] = 1.0 - dip_sum
    return model, jac


# box bounds in scaled coordinates: centers near the unit span, widths
# positive and sub-span, depths a physical dip fraction
_SCALED_LO = np.array([1e-9, -0.25, 1e-6, 0.0, -0.25, 1e-6, 0.0])
_SCALED_HI = np.array([np.inf, 1.25, 4.0, 0.999, 1.25, 4.0, 0.999])


def _project(theta: np.ndarray) -> np.ndarray:
    out = theta.copy()
    # the lineshape is even in the width, so folding the sign is exact
    out[2] = abs(out[2])
    out[5] = abs(out[5])
    return np.clip(out, _SCALED_LO, _SCALED_HI)


def _levenberg_marquardt(x, y, theta):
    """Damped least squares in scaled units: (theta, cost, failure), where
    failure is None on convergence and otherwise says why the loop stopped
    at the returned iterate."""
    theta = _project(theta)
    model, jac = _model_and_jacobian(x, theta)
    residual = model - y
    cost = float(residual @ residual)
    lam = 1e-3
    for _ in range(MAX_ITERATIONS):
        a = jac.T @ jac
        g = jac.T @ residual
        diag = np.diag(np.clip(np.diag(a), 1e-30, None))
        accepted = False
        while lam < 1e15:
            try:
                step = np.linalg.solve(a + lam * diag, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = _project(theta + step)
            model, jac_new = _model_and_jacobian(x, candidate)
            residual_new = model - y
            cost_new = float(residual_new @ residual_new)
            if math.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            return theta, cost, "damping exhausted without reducing the cost"
        drop = cost - cost_new
        theta, residual, jac, cost = candidate, residual_new, jac_new, cost_new
        lam = max(lam * 0.1, 1e-15)
        if drop <= COST_REL_TOL * max(cost, 1e-300):
            return theta, cost, None
    return theta, cost, f"no convergence within {MAX_ITERATIONS} iterations"
