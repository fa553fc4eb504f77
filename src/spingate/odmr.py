"""CW-ODMR spectra: synthesis, double-Lorentzian fitting, per-frequency gating.

A spectrum is detected counts versus applied MW frequency. On resonance a
fraction p(f) of the spin population is driven into the MW-on branch, so the
expected counts interpolate between the two gated channel levels:
counts(f) = (1 - p) N0 + p N1 with p a sum of two Lorentzian dips.

The fitted model is counts(f) = baseline * (1 - sum_k depth_k L_k(f)) with
unit-peak Lorentzians L; fitted depths are therefore measured contrast
contributions (population depth times the gated two-level contrast), not the
population depths themselves.

The fit is separable least squares (variable projection; Golub & Pereyra,
SIAM J. Numer. Anal. 10, 413, 1973), in frequency scaled to the span and
counts scaled to their maximum. The model b + b1 L1 + b2 L2 is linear in
(b, b1, b2), with baseline = b and depth_k = -b_k / b, so those are solved at
every step and only the centers and widths are iterated. The start is global: every pair of
dips on a grid of centers and widths, each pair's linear part solved in
closed form. A damped Gauss-Newton loop then refines it, first on a binned
copy of a long spectrum and then on all points. It stops when the undamped
step is under SE_TOL standard errors of the fit (the residual's angle to the
model's tangent plane; Transtrum & Sethna, arXiv:1201.5885), or the damped
step under STEP_TOL of the parameters; at most MAX_ITERATIONS model
evaluations.
"""

from __future__ import annotations

import math

import numpy as np

# decay and metrics load on first use, so odmr-fit loads neither
from . import decay, histogram, metrics, reader
from .errors import ConfigError, FitError, NonConvergenceError
from .gating import GateWindow, gate_from_args
from .record import (
    Record, frozen_array, require_finite, require_finite_means, require_poisson_means
)

MAX_ITERATIONS = 500
SE_TOL = 1e-5
STEP_TOL = 1e-12
SEARCH_POINTS = 500  # from twice this length, search and first refine on this many bins

# search grid: 31 centers over the span, each at three widths (span units)
_GRID_CENTERS = np.tile(np.linspace(0.0, 1.0, 31), 3)
_GRID_WIDTHS = np.repeat([0.05, 0.1, 0.2], 31)
_PAIR_I, _PAIR_J = np.triu_indices(_GRID_WIDTHS.size, 1)


class OdmrSpectrum(Record):
    """Counts per MW frequency, with the gate used during acquisition."""

    freqs: np.ndarray  # Hz, finite, strictly increasing
    counts: np.ndarray  # finite, non-negative
    integration_per_point: float  # s
    gate: GateWindow | None = None  # None = ungated

    def __post_init__(self):
        freqs = frozen_array(self.freqs)
        counts = frozen_array(self.counts)
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
        _check_integration(self.integration_per_point)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.freqs.size)


def _check_integration(integration_per_point: float) -> None:
    if not integration_per_point > 0:
        raise ValueError("integration_per_point must be > 0")
    if not math.isfinite(integration_per_point):
        raise ValueError(f"integration_per_point must be finite, got {integration_per_point}")


class DoubletTruth(Record):
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
        require_finite(self, *self._fields)
        for name in ("fwhm1", "fwhm2"):
            # _lorentz divides by the half-width squared plus the detuning's;
            # a square of 0 gives 0 / 0 at the center, one past float64 raises
            width = getattr(self, name)
            square = (0.5 * width) * (0.5 * width)
            if square == 0.0:
                raise ValueError(
                    f"{name} {width:g} Hz is too narrow: its half-width squared underflows "
                    "float64 to 0"
                )
            if square == math.inf:
                raise ValueError(
                    f"{name} {width:g} Hz is too wide: its half-width squared overflows float64"
                )

    def population(self, freqs: np.ndarray) -> np.ndarray:
        """Driven population fraction p(f) = sum of the two Lorentzian dips."""
        f = np.asarray(freqs, dtype=float)
        return _lorentz(f, self.center1, self.fwhm1) * self.depth1 + _lorentz(
            f, self.center2, self.fwhm2
        ) * self.depth2


class LorentzianDoublet(Record):
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
    """Unit-peak Lorentzian; exactly 0 where the detuning's square overflows."""
    half_sq = (0.5 * fwhm) ** 2
    with np.errstate(over="ignore"):
        return half_sq / ((f - center) ** 2 + half_sq)


def synth_odmr(
    model: decay.FluorescenceModel,
    train: decay.PulseTrain,
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
    _check_integration(integration_per_point)  # before the draw, which would fail on it
    freqs = np.asarray(freqs, dtype=float)
    window = GateWindow(0.0) if gate is None else gate
    n0, n1 = (
        decay.steady_rate(model, spin, window.t_start, train, window.t_end)
        * integration_per_point
        for spin in ("ms0", "ms1")
    )
    p = truth.population(freqs)
    expected = (1.0 - p) * n0 + p * n1
    quantity = f"expected counts per point (integration_per_point {integration_per_point:g} s)"
    if seed is None:
        require_finite_means(expected, quantity)
    else:
        require_poisson_means(expected, quantity)
        expected = np.random.default_rng(seed).poisson(expected).astype(float)
    return OdmrSpectrum(
        freqs=freqs, counts=expected, integration_per_point=integration_per_point, gate=gate
    )


def gate_measured_odmr(
    histograms: list[tuple[float, histogram.TcspcHistogram]], gate: GateWindow
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
            or h.channel_time != first.channel_time
        ):
            raise ValueError("histograms must share bin width, rep rate and channel time")
    counts = np.array([h.gated_total(gate.t_start, gate.t_end) for h in hists])
    return OdmrSpectrum(
        freqs=freqs,
        counts=counts,
        integration_per_point=first.channel_time,
        gate=gate,
    )


def sensitivity_from_fit(doublet: LorentzianDoublet, rates) -> float:
    """CW sensitivity using the deeper dip's linewidth."""
    _, fwhm, _ = doublet.deeper_dip()
    return metrics.sensitivity_cw(fwhm, rates)


# ---------------------------------------------------------------------------
# Double-Lorentzian fitting


def fit_double_lorentzian(spectrum: OdmrSpectrum) -> tuple[LorentzianDoublet, float]:
    """Fit baseline * (1 - d1 L1 - d2 L2) to a spectrum.

    Returns the fitted doublet (dips ordered by center) and the residual
    2-norm. Raises NonConvergenceError (carrying the last iterate) if the
    refinement cannot converge or leaves the valid domain, FitError on
    degenerate input.
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
    y_scale = float(np.max(y_raw))  # > 0: counts are non-negative, not all equal
    y = y_raw / y_scale

    run = x.size // SEARCH_POINTS
    if run >= 2:  # bin means; a remainder of under one run is left out
        n = x.size // run * run
        x_bin, y_bin = (v[:n].reshape(-1, run).mean(axis=1) for v in (x, y))
        theta = _refine(x_bin, y_bin, _search(x_bin, y_bin))[0]
    else:
        theta = _search(x, y)
    theta, linear, cost, failure = _refine(x, y, theta)

    c1, w1, c2, w2 = theta * span
    baseline, b1, b2 = linear
    dips = sorted([(f0 + c1, w1, -b1 / baseline), (f0 + c2, w2, -b2 / baseline)])
    params = dict(zip(("baseline", "center1", "fwhm1", "depth1", "center2", "fwhm2", "depth2"),
                      (baseline * y_scale, *dips[0], *dips[1])))
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


def _search(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(c1, w1, c2, w2) of the pair of grid dips that lowers the residual most.

    A pair's linear part b + b1 L1 + b2 L2 is a 3x3 least-squares problem.
    Centring each Lorentzian and y on their means eliminates b, which leaves
    a 2x2 system in the Gram matrix G of the centred Lorentzians and their
    products p with y, solved in closed form; the residual falls by
    p^T G^-1 p. A pair counts only if both b1 and b2 are dips (negative).
    """
    half_sq = (0.5 * _GRID_WIDTHS[:, None]) ** 2
    lorentz = half_sq / ((x - _GRID_CENTERS[:, None]) ** 2 + half_sq)
    lorentz -= lorentz.mean(axis=1, keepdims=True)
    gram = lorentz @ lorentz.T
    p = lorentz @ (y - y.mean())
    g = gram.diagonal()
    g_ij = gram.ravel()[_PAIR_I * g.size + _PAIR_J]
    p_i, p_j, g_i, g_j = p[_PAIR_I], p[_PAIR_J], g[_PAIR_I], g[_PAIR_J]
    # b1 and b2 times det = g_i g_j - g_ij^2, which is > 0
    b_i = g_j * p_i - g_ij * p_j
    b_j = g_i * p_j - g_ij * p_i
    gain = (b_i * p_i + b_j * p_j) / (g_i * g_j - g_ij * g_ij)
    gain[(b_i >= 0) | (b_j >= 0)] = 0.0
    best = np.argmax(gain)
    i, j = _PAIR_I[best], _PAIR_J[best]
    return np.array([_GRID_CENTERS[i], _GRID_WIDTHS[i], _GRID_CENTERS[j], _GRID_WIDTHS[j]])


def _profile(x: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """(linear, cost, hess, grad) of the model b + b1 L1 + b2 L2 at theta =
    (c1, w1, c2, w2), with linear = (b, b1, b2) solved.

    cost is the squared norm of the explicit residual r. hess and grad are
    Kaufman's normal equations, J^T J = A D^T P D A and J^T r = -A D^T P y,
    with P the projection off Phi = [1, L1, L2], D the four lineshape
    derivatives and A the coefficient each scales by. All of it comes from
    the one Gram matrix of [Phi, D, y]: with G = Phi^T Phi and E = [D, y],
    E^T P E = E^T E - (Phi^T E)^T G^-1 Phi^T E.
    """
    columns = np.empty((8, x.size))
    columns[0] = 1.0
    columns[7] = y
    width = theta[1::2, None]
    dx = x - theta[0::2, None]
    half_sq = 0.25 * width * width
    inv = 1.0 / (dx * dx + half_sq)
    lorentz = np.multiply(inv, half_sq, out=columns[1:3])
    derivs = columns[3:7].reshape(2, 2, -1)  # dip, (d/dc, d/dw), point
    np.multiply(2.0 * dx * lorentz, inv, out=derivs[:, 0])
    np.multiply(0.5 * width * (1.0 - lorentz), inv, out=derivs[:, 1])
    gram = columns @ columns.T
    solved = np.linalg.solve(gram[:3, :3], gram[:3, 3:])
    linear = solved[:, 4]
    projected = gram[3:, 3:] - gram[:3, 3:].T @ solved
    residual = linear @ columns[:3] - y
    scale = np.repeat(linear[1:], 2)
    hess = projected[:4, :4] * scale[:, None] * scale
    # einsum, not BLAS's dot, whose summation order follows the thread count
    return linear, float(np.einsum("i,i", residual, residual)), hess, -scale * projected[:4, 4]


def _refine(x: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """Damped Gauss-Newton from theta = (c1, w1, c2, w2): (theta, linear,
    cost, failure), failure None on convergence and otherwise why the loop
    stopped at the returned iterate.

    The damping is Marquardt's, lam * diag(J^T J), moved by Nielsen's rule.
    No width goes below the point spacing, the narrowest dip the samples
    resolve: a dip could otherwise close on one low point, its depth growing
    without bound as the cost falls. A width on that floor which the
    gradient pushes lower is held, and the stop rule looks at the rest.
    """
    floor = (x[-1] - x[0]) / (x.size - 1)
    dof = max(x.size - 7, 1)
    theta = theta.copy()
    theta[1::2] = np.maximum(theta[1::2], floor)
    linear, cost, hess, grad = _profile(x, y, theta)
    lam, nu = 1e-3, 2.0
    for _ in range(MAX_ITERATIONS):
        free = np.array([True, theta[1] > floor or grad[1] < 0, True, theta[3] > floor or grad[3] < 0])
        h, g = hess[free][:, free], grad[free]
        damping = lam * h.diagonal()
        step = np.linalg.solve(h + np.diag(damping), -g)
        # g H^-1 g, the cost the undamped step would remove, is at most bound
        # when that step is SE_TOL standard errors long; -g @ step never
        # exceeds it. At rounding level no trial lowers the cost, and the
        # damping grows until the step rule ends the fit.
        bound = SE_TOL**2 * cost / dof
        small = step @ step <= STEP_TOL**2 * (theta @ theta)
        if small or (-g @ step <= bound and g @ np.linalg.solve(h, g) <= bound):
            return theta, linear, cost, None
        trial = theta.copy()
        trial[free] += step
        trial[1::2] = np.maximum(trial[1::2], floor)
        state = _profile(x, y, trial)
        gain = (cost - state[1]) / (step @ (damping * step - g))
        if gain > 0:
            theta, (linear, cost, hess, grad) = trial, state
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
    return theta, linear, cost, f"no convergence within {MAX_ITERATIONS} iterations"


# Command-line handlers: handler(args, run, seed) -> (metadata, columns).


def cmd_odmr_synth(args, run, seed):
    if args.points < 2:
        raise ConfigError("--points must be >= 2")
    if not math.isfinite(args.f_stop - args.f_start):
        raise ConfigError(
            f"frequency span must be finite, got --f-start {args.f_start} --f-stop {args.f_stop}"
        )
    freqs = np.linspace(args.f_start, args.f_stop, args.points)
    truth = DoubletTruth(
        args.center1, args.fwhm1, args.depth1, args.center2, args.fwhm2, args.depth2
    )
    gate = None if args.tau_c == 0 and args.t_end is None else gate_from_args(args)
    spectrum = synth_odmr(
        run.model, run.train, gate, freqs, truth, args.integration_per_point, seed=seed
    )
    meta = dict(
        integration_per_point_s=args.integration_per_point,
        gate_start_ns="none" if gate is None else gate.t_start,
        gate_end_ns="none" if gate is None else gate.t_end,
        rep_rate_hz=run.train.rep_rate,
    )
    return meta, {"freq_hz": spectrum.freqs, "counts": spectrum.counts}


def cmd_odmr_fit(args, run, seed):
    table = reader.read_report(args.input, ("freq_hz", "counts"))
    meta = table.metadata
    integration = reader.metadata_number(args.input, meta, "integration_per_point_s", 1.0)
    gate = None
    if meta.get("gate_start_ns", "none") != "none":
        keys = ("gate_start_ns", "gate_end_ns")
        gate = GateWindow(*(reader.metadata_number(args.input, meta, k) for k in keys))
    spectrum = OdmrSpectrum(
        freqs=table.data["freq_hz"],
        counts=table.data["counts"],
        integration_per_point=integration,
        gate=gate,
    )
    doublet, residual_norm = fit_double_lorentzian(spectrum)
    data = {
        "baseline": [doublet.baseline],
        "center1_hz": [doublet.center1],
        "fwhm1_hz": [doublet.fwhm1],
        "depth1": [doublet.depth1],
        "center2_hz": [doublet.center2],
        "fwhm2_hz": [doublet.fwhm2],
        "depth2": [doublet.depth2],
    }
    return {"input": args.input, "residual_norm": residual_norm}, data
