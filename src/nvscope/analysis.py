"""Recover field maps and device metrics from contrast image cubes.

Per-pixel traces are fit with the damped-oscillation model

    y(t) = A - (B exp(-t/tau_f) + C exp(-t/tau_s)) sin(Omega t + phi)

using Levenberg-Marquardt with an analytic Jacobian. The frequency is
seeded from a zero-padded periodogram peak (parabolic interpolation),
which keeps the multimodal Omega landscape from trapping the solver.
The phase phi is free, so the model also matches (1 - cos)-shaped
population signals. Calibration is B = Omega / (2 pi GAMMA_NV).

All pixels of a block (at most FIT_BLOCK_PX) are fit together by one
numpy LM loop, the "many small fits" scheme of Gpufit (Przybylski et
al., Sci. Rep. 7, 15722, 2017): seeds come from one FFT over the rows,
each row has its own damping and Moré (1978) column scaling, the
damped normal equations of all rows are solved as one stack, and a row
leaves the loop once it converges or has used MAX_EVALS (400) residual
evaluations (the first included); the loop then carries only the rows
still active. No step mixes rows, and the traces are C-contiguous rows
so every reduction sums a trace in the same order, so a pixel's result
does not depend on the other pixels of its block: fit_pixel is the
same fitter on a one-row block.

Under the default double envelope every trace is fit with both the
single-exponential (C = 0) and the double-exponential envelope, and
the nested pair is compared by the Bayesian information criterion
(Schwarz 1978),

    dBIC = n ln(RSS_single / RSS_double) - 2 ln n,

the double model carrying two more parameters (C, tau_s). The double
envelope is kept only when its solve converged, dBIC >= BIC_MARGIN
(10, "very strong" evidence on the Kass & Raftery 1995 scale) and its
|Omega| is strictly inside the omega bounds; otherwise the pixel is fit
single-exp, so a double is never kept with a frequency the converged
flag would reject. A floor of n (1e-10 max|y|)^2 is added to both
residual sums so that exact single-exp traces, whose residuals are at
rounding level, compare as equal and stay single-exp.
Noise that a second exponential merely absorbs gives dBIC near -2 ln n,
far below the margin, so rounding-level changes to the input do not
change the choice; only a dBIC within rounding of the margin, a double
solve that converges right at its evaluation budget, or one that
reaches the margin right at the exit below, could.

The double solve is run only where the single fit leaves misfit above
the noise of its own residual r:

    R = RSS_single / (n sigma^2) > DOUBLE_GATE (1.1),
    sigma^2 = median(|rfft(r - mean r, 4n)|[1:])^2 / (n ln 2),

the median of a white-noise periodogram being n sigma^2 ln 2; a
misfit puts its power in a few bins, which move RSS but not the median.
A single fit at the noise level has R near 1, and a double kept by the
BIC rule needs RSS_single / RSS_double of at least
exp((10 + 2 ln n) / n), about 1.21 at n = 100, with RSS_double itself
near the noise. On the cpw-fig2 rabi-fit samples of seeds 1-10 the
smallest R of a kept double was 1.179, so 1.1 leaves a margin of 0.08;
1.2 and 1.3 missed kept doubles. Where the gate stays shut the pixel
keeps its single-exp fit, exactly as when the BIC rule discards the
double, and only its evaluation count differs; a pixel changes only
where the gate skips a double the rule would have kept.

A single-exp row that has used OMEGA_EXIT_EVALS (50) evaluations and
whose accepted |Omega| is not strictly inside the omega bounds leaves
the LM loop as finished, and the bounds check reports it converged=False
(omega out of bounds, not budget exhausted). Such rows are traces with
less than a Rabi cycle in the scan that crawl down the valley of
vanishing Omega, rising amplitude and growing tau, the "parameter
evaporation" of sloppy models (Transtrum, Machta & Sethna, PRL 104,
060201, 2010); without the exit they would run to the evaluation budget,
holding their whole block in the loop, only to be reported not
converged. On the cpw-fig2 rabi-fit samples of seeds 1-10 and on the
cpw-fig2, omega-fig3 and trap-fig4-xz maps (default and one-cycle
bounds), the latest evaluation at which a row outside the bounds came
back inside and converged was 32, so 50 leaves a margin of 1.56x. Only
the rows that exit change, in their parameters and evaluation count;
their field is 0 either way. The rule reads each row alone and the
evaluation count that all active rows share, so fit_pixel still equals
the same pixel fitted in a block.

The same exit covers the double-exp solve: a double row whose accepted
|Omega| is not strictly inside the omega bounds, or whose dBIC over its
own single fit is still below BIC_MARGIN, after OMEGA_EXIT_EVALS
evaluations leaves the loop as finished, and the BIC rule discards it.
The loop and the rule read dBIC from one function, _bic_gain, and the
loop, the rule and the converged flag read the bounds from one,
_in_bounds, so they cannot disagree. Accepted steps only lower the RSS,
so dBIC only grows along a solve: a row that exited below the margin
could have been kept only by crossing it after evaluation 50. On the
cpw-fig2 rabi-fit samples of seeds 1-10 (333 doubles that pass the BIC
rule without the bounds test) every kept double had reached the margin
by evaluation 13, and on the cpw-fig2, omega-fig3 and trap-fig4-xz maps
(1357 kept) by evaluation 16, a margin of 3.1x. A row that exited
outside the bounds could have been kept only by coming back inside after
evaluation 50. Of the doubles kept on those samples (288) and maps
(1140), 12 were ever outside the bounds, and none after evaluation 38
(cpw-fig2; 16 on trap-fig4-xz, 6 on the samples), a margin of 1.32x;
with FitConfig.omega_bounds set to the one-cycle bounds (2 pi / span,
pi / step) none of them keeps a double. The bounds exit stops 265 of
the 4226 double solves of the samples and 334, 159 and 598 of the
maps' 5119, 2546 and 4333, solves that would otherwise run on to their
budget below the bounds.
Only the evaluation counts of the rows that exit change.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from nvscope.acquisition import check_dt_ns
from nvscope.fieldcore import GAMMA_NV, output_array, run_ranges, workers_for
from nvscope.nearfield import GridSpec, PolarizedFieldMap


class NoOscillation(ValueError):
    """Periodogram peak below the detection threshold: field unresolved.

    Nothing in nvscope raises it: a fit reports a below-threshold trace
    in its FIT_DTYPE record. It is kept only because the benchmark's
    smoke check constructs it to inject a failing report, and goes at
    the next benchmark revision.
    """

    def __init__(self, snr, threshold):
        self.snr = snr
        self.threshold = threshold
        super().__init__(
            f"no oscillation detected: periodogram SNR {snr:.2f} below "
            f"threshold {threshold:.2f}")


class TrapNotFound(ValueError):
    """No interior local minimum in the searched region."""


class NoConvergedPixel(ValueError):
    """No pixel converged in every repeat of a sensitivity estimate."""


DOUBLE_EXP = "double-exp"
SINGLE_EXP = "single-exp"

# dBIC a double-exp fit must reach over the single-exp fit to be kept
BIC_MARGIN = 10.0

# single-exp RSS over n times its residual's noise floor above which the
# double-exp solve runs
DOUBLE_GATE = 1.1

# residual evaluations after which a row whose accepted |Omega| is on or
# outside the omega bounds leaves the LM loop
OMEGA_EXIT_EVALS = 50

# residual evaluations a solve may use, the first included
MAX_EVALS = 400

# periodogram SNR (peak over median magnitude) below which a trace is
# flagged below_threshold and not fitted
MIN_SNR = 6.0

# pixels fitted together in one LM batch; bounds the solver's memory
FIT_BLOCK_PX = 1024

# pixels per fit worker, at least: a fit of fewer pixels per worker
# than this does not pay for the fork (timed in _fit_columns)
FIT_SPLIT_PX = 256

# MINPACK gradient test: max |cos(column of J, residual)|
_GTOL = 1e-14

# MINPACK ftol and xtol: relative reduction of the cost and relative step
_RTOL = 1e-10


@dataclass
class FitConfig:
    envelope_mode: str = DOUBLE_EXP
    omega_bounds: tuple = None  # (min, max) rad/ns; None = auto from sampling

    def __post_init__(self):
        if self.omega_bounds is not None:
            lo, hi = self.omega_bounds
            if not 0 < lo < hi:
                raise ValueError("omega_bounds must be positive and ordered")
        if self.envelope_mode not in (DOUBLE_EXP, SINGLE_EXP):
            raise ValueError(
                f"envelope_mode must be {DOUBLE_EXP!r} or {SINGLE_EXP!r}")


# Per-pixel fit parameters and diagnostics, one record per pixel. omega
# is in rad/ns; amp_slow is 0 and tau_slow_ns equals tau_fast_ns when
# the envelope collapsed to a single exponential. exhausted says the kept
# solve used up its evaluation budget. evaluations counts the residual
# evaluations of the solves that ran and double_solved says the
# double-exp solve ran; these two record work, not the fit.
FIT_DTYPE = np.dtype([
    ("offset", np.float64), ("amp_fast", np.float64),
    ("amp_slow", np.float64), ("tau_fast_ns", np.float64),
    ("tau_slow_ns", np.float64), ("omega", np.float64),
    ("phase", np.float64), ("residual_rms", np.float64),
    ("converged", np.bool_), ("below_threshold", np.bool_),
    ("evaluations", np.int64), ("exhausted", np.bool_),
    ("double_solved", np.bool_)])


def omega_to_field(omega_rad_per_ns):
    """Calibrated field amplitude (T) for an angular frequency in rad/ns."""
    return omega_rad_per_ns * 1e9 / (2.0 * math.pi * GAMMA_NV)


def _default_omega_bounds(t_ns):
    step = float(np.median(np.diff(t_ns)))
    return (2.0 * math.pi * 1e-4, math.pi / step)


def _padded_spectrum(y):
    """|rfft| of every row of y with its mean removed, zero-padded to 4n."""
    return np.abs(np.fft.rfft(y - np.mean(y, axis=1, keepdims=True),
                              4 * y.shape[1], axis=1))


def _periodogram_peaks(t, y):
    """Dominant oscillation frequency (cycles/ns) and SNR of every row.

    The peak bin of _padded_spectrum is refined by parabolic
    interpolation. SNR is peak magnitude over the median non-DC
    magnitude. Ties resolve to the lower frequency.
    """
    step = float(np.mean(np.diff(t)))
    mag = _padded_spectrum(y)
    nfft = 4 * y.shape[1]
    body = mag[:, 1:]
    k = np.argmax(body, axis=1) + 1
    rows = np.arange(len(y))
    peak = mag[rows, k]
    floor = np.median(body, axis=1)
    # parabolic refinement on the three bins around the peak
    inner = (k >= 2) & (k + 1 < mag.shape[1])
    alpha = mag[rows, np.where(inner, k - 1, k)]
    gamma = mag[rows, np.where(inner, k + 1, k)]
    denom = alpha - 2 * peak + gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(floor == 0.0, np.where(peak > 0, math.inf, 0.0),
                       peak / floor)
        delta = np.where(inner & (denom != 0), 0.5 * (alpha - gamma) / denom,
                         0.0)
    delta = np.clip(delta, -0.5, 0.5)
    return (k + delta) / (nfft * step), snr


def _seed_taus(t, y):
    """Envelope time constant estimates from early/late oscillation power.

    Near-constant envelopes seed at a large tau so the solver does not
    have to climb out of a fast-decay guess one step at a time.
    """
    half = len(t) // 2
    early = y[:, :half] - np.mean(y[:, :half], axis=1, keepdims=True)
    late = y[:, half:] - np.mean(y[:, half:], axis=1, keepdims=True)
    r_early = np.sqrt(np.mean(early ** 2, axis=1))
    r_late = np.sqrt(np.mean(late ** 2, axis=1))
    span = float(t[-1] - t[0])
    gap = float(np.mean(t[half:]) - np.mean(t[:half]))
    decays = (r_late > 0) & (r_early > r_late)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(decays, gap / np.log(r_early / r_late), 50.0 * span)
    return np.clip(tau, span / 20.0, 50.0 * span)


def _model_rows(t, neg_t, y, x, k):
    """Residuals of the model at parameter rows x against the rows of y.

    A row is [A, amp_1..amp_k, ln tau_1..ln tau_k, Omega, phi], with k
    = 1 (single-exp) or 2 (double-exp); neg_t is -t. Returns the
    residuals and the model terms the Jacobian reuses.
    """
    # the clip as two ufuncs: np.clip's wrapper costs more on small stacks
    log_taus = np.minimum(np.maximum(x[:, 1 + k:1 + 2 * k], -40.0), 40.0)
    # -t / tau, the exponent of each decay and a factor of its tau column
    rate_t = neg_t / np.exp(log_taus)[:, :, None]
    decays = np.exp(rate_t)
    env = x[:, 1, None] * decays[:, 0]
    if k == 2:
        env = env + x[:, 2, None] * decays[:, 1]
    arg = x[:, 1 + 2 * k, None] * t + x[:, 2 + 2 * k, None]
    s = np.sin(arg)
    return (x[:, :1] - env * s) - y, (rate_t, decays, env, s, arg)


def _normal_equations(t, x, resid, terms, k):
    """J^T J and the gradient J^T r of every row, J from the terms of
    _model_rows."""
    rate_t, decays, env, s, arg = terms
    jac = np.empty((len(x), x.shape[1], len(t)))
    jac[:, 0] = 1.0
    jac[:, 1:1 + k] = -decays * s[:, None]
    jac[:, 1 + k:1 + 2 * k] = (x[:, 1:1 + k, None] * decays * rate_t
                               * s[:, None])
    cos = np.cos(arg)
    jac[:, 1 + 2 * k] = -env * t * cos
    jac[:, 2 + 2 * k] = -env * cos
    return (jac @ jac.transpose(0, 2, 1),
            (jac @ resid[:, :, None])[:, :, 0])


def _solve_rows(m, b):
    """Solve each system of the stack. A singular system gives its row a
    NaN step instead of failing the stack; non-finite ones give NaN."""
    b = b[:, :, None]
    try:
        return np.linalg.solve(m, b)[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.full(b.shape[:2], np.nan)
        for i in range(len(b)):
            try:
                step[i] = np.linalg.solve(m[i:i + 1], b[i:i + 1])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return step


def _small_gradient(norms, grad, ssq):
    """MINPACK's gtol test: every column of J is orthogonal to r; norms
    is the diagonal of J^T J."""
    cosine = np.abs(grad) / np.sqrt(norms * ssq[:, None])
    cosine = np.where(norms > 0, cosine, 0.0)
    return (ssq == 0) | (cosine.max(axis=1) <= _GTOL)


def _rss_floor(y):
    """n (1e-10 max|y|)^2 for every row of y: added to both residual sums
    of the BIC rule, so that exact single-exp traces, whose residuals are
    at rounding level, compare as equal and stay single-exp."""
    return y.shape[1] * (1e-10 * np.maximum(np.max(np.abs(y), axis=1),
                                            1e-30)) ** 2


def _bic_gain(ssq_single, ssq_double, floor, n):
    """dBIC of the double-exp fit over the single-exp fit of each trace of
    n samples, from their residual sums (see the module doc); floor is
    _rss_floor of the traces. The one formula of the BIC rule, read both
    by the LM loop's exit and by the rule itself."""
    return (n * np.log((0.5 * ssq_single + floor) / (0.5 * ssq_double + floor))
            - 2.0 * math.log(n))


def _in_bounds(omega, bounds):
    """|Omega| strictly inside the omega bounds (lo, hi), elementwise; a
    NaN is outside. The one test of the bounds, read by the LM loop's
    exit, the BIC rule and the converged flag, so they cannot disagree."""
    omega = np.abs(omega)
    return (bounds[0] < omega) & (omega < bounds[1])


def _levenberg_marquardt(t, y, x, k, omega_bounds=None, ssq_single=None):
    """Fit the rows of y (P, n) from the seed rows x (P, p) together.

    Each row carries its own damping lam and Moré scaling d2 (running
    max of diag J^T J) and solves (J^T J + lam diag d2) dx = -J^T r.
    A step is kept when its gain ratio exceeds 1e-4. A row converges
    on MINPACK's ftol, xtol or gtol test and leaves the active set when
    it converges or has used MAX_EVALS residual evaluations, the first
    included. Once OMEGA_EXIT_EVALS evaluations are used, a row that
    its caller will reject also leaves, reported as finished
    (see the module doc): with omega_bounds (lo, hi), a row whose
    accepted |Omega| is not strictly inside them (_in_bounds), which
    the caller's bounds check returns with converged=False, not as an
    exhausted budget, and which the BIC rule discards if it is a
    double-exp row; with ssq_single, the RSS of each row's single-exp
    fit, a double-exp row whose _bic_gain over it is still below
    BIC_MARGIN, which the BIC rule discards too. The state of the
    active rows is held compacted and is cut down only in the
    iterations where rows leave, so a block's tail of slow rows does
    not index the full-size arrays in every iteration; accepted and
    rejected steps are merged row by row with np.where. Returns (x,
    residual sum of squares, evaluations, finished) per row, finished
    meaning converged or left early. y is overwritten: the rows still
    active are moved to its front as others leave.
    """
    diag = np.arange(x.shape[1])
    neg_t = -t
    x_out = x.copy()
    nfev_out = np.empty(len(x), dtype=int)
    if ssq_single is not None:
        floor = _rss_floor(y)
    with np.errstate(all="ignore"):
        resid, terms = _model_rows(t, neg_t, y, x_out, k)
        ssq_out = (resid ** 2).sum(axis=1)
        jtj, grad = _normal_equations(t, x_out, resid, terms, k)
        norms = jtj.diagonal(axis1=1, axis2=2)
        d2 = norms.copy()
        d2[d2 == 0] = 1.0
        conv_out = _small_gradient(norms, grad, ssq_out)
        # active state, never written in place: row i belongs to row
        # rows[i] of the inputs, and every active row has used nfev
        # evaluations
        rows, x, ssq, nfev = np.arange(len(x)), x_out, ssq_out, 1
        lam = np.full(len(x), 1e-3)
        nu = np.full(len(x), 2.0)
        done = conv_out
        while True:
            # a row that its caller will reject is finished
            if nfev >= OMEGA_EXIT_EVALS:
                if omega_bounds is not None:
                    done = done | ~_in_bounds(x[:, 1 + 2 * k], omega_bounds)
                if ssq_single is not None:
                    done = done | ~(_bic_gain(ssq_single[rows], ssq,
                                              floor[rows], len(t))
                                    >= BIC_MARGIN)
            if nfev >= MAX_EVALS or done.any():
                stay = (~done if nfev < MAX_EVALS
                        else np.zeros(len(rows), dtype=bool))
                gone = ~stay
                out = rows[gone]
                x_out[out], ssq_out[out] = x[gone], ssq[gone]
                nfev_out[out], conv_out[out] = nfev, done[gone]
                rows, x, ssq, lam, nu, d2, jtj, grad = (
                    q[stay] for q in (rows, x, ssq, lam, nu, d2, jtj, grad))
                # in place: a compacted copy would sit beside the caller's
                y[:len(rows)] = y[stay]
                y = y[:len(rows)]
            if not rows.size:
                break
            lam_d2 = lam[:, None] * d2
            damped = jtj.copy()
            damped[:, diag, diag] += lam_d2
            step = _solve_rows(damped, -grad)
            x_new = x + step
            resid, terms = _model_rows(t, neg_t, y, x_new, k)
            ssq_new = (resid ** 2).sum(axis=1)
            nfev += 1
            # reductions of the cost ssq / 2: actual and as predicted by
            # the damped linear model
            cost = 0.5 * ssq
            actual = cost - 0.5 * ssq_new
            pred = 0.5 * (step * (lam_d2 * step - grad)).sum(axis=1)
            rho = np.where(pred > 0, actual / pred, -math.inf)
            accept = np.isfinite(ssq_new) & (rho > 1e-4)
            small = _RTOL * cost
            done = (np.abs(actual) <= small) & (pred <= small) & (rho <= 2.0)
            done |= ((d2 * step ** 2).sum(axis=1)
                     <= _RTOL ** 2 * (d2 * x ** 2).sum(axis=1))

            # accepted: relax the damping; rejected: raise it
            # geometrically
            lam = np.where(accept, lam * np.maximum(
                1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), lam * nu)
            nu = np.where(accept, 2.0, 2.0 * nu)
            # accepted: move and relinearize. J is built for every row,
            # which costs less than gathering the accepted ones (about
            # 90% of the rows); an accepted row takes the trial values
            jtj_new, grad_new = _normal_equations(t, x_new, resid, terms, k)
            norms = jtj_new.diagonal(axis1=1, axis2=2)
            done |= accept & _small_gradient(norms, grad_new, ssq_new)
            x = np.where(accept[:, None], x_new, x)
            ssq = np.where(accept, ssq_new, ssq)
            jtj = np.where(accept[:, None, None], jtj_new, jtj)
            grad = np.where(accept[:, None], grad_new, grad)
            d2 = np.where(accept[:, None], np.maximum(d2, norms), d2)
    return x_out, ssq_out, nfev_out, conv_out


def _wrap_phase(phi):
    """math.remainder(phi, 2 pi) of every element, exactly: the wrap into
    [-pi, pi] with ties to the even multiple of 2 pi. fmod by 4 pi is
    exact, and so is each subtraction of 2 pi from what is left (Sterbenz)."""
    two_pi = 2.0 * math.pi
    r = np.fmod(phi, 2.0 * two_pi)
    a = np.abs(r)
    d = a - two_pi
    wrapped = np.where(a <= math.pi, a,
                       np.where(d < math.pi, d, d - two_pi))
    return np.where(np.signbit(r), -wrapped, wrapped)


def _seed_rows(t, y, freq):
    """Single-exp and double-exp seed rows for the rows of y, from their
    periodogram frequencies (cycles/ns)."""
    w0 = 2.0 * math.pi * freq
    a0 = np.mean(y, axis=1)
    amp0 = (np.max(y, axis=1) - np.min(y, axis=1)) / 2.0
    tau0 = _seed_taus(t, y)
    # (1 - cos)-shaped signals start at quadrature
    phase = np.full(len(y), math.pi / 2.0)
    return (np.column_stack([a0, amp0, np.log(tau0), w0, phase]),
            np.column_stack([a0, amp0 / 2, amp0 / 2, np.log(tau0 / 3),
                             np.log(3 * tau0), w0, phase]))


def _noise_variance(resid):
    """White-noise variance of every row of resid, from the median of its
    _padded_spectrum: |X_k|^2 of white noise is exponential with mean
    n sigma^2, so its median is n sigma^2 ln 2."""
    n = resid.shape[1]
    return (np.median(_padded_spectrum(resid)[:, 1:], axis=1) ** 2
            / (n * math.log(2.0)))


def _fit_times(t_ns):
    """t_ns as check_dt_ns returns it, if it holds enough samples to
    fit; else ValueError."""
    t = check_dt_ns(t_ns)
    if len(t) < 8:
        raise ValueError("need at least 8 samples to fit")
    return t


def _fit_rows(t_ns, y, cfg):
    """Fit every row of y (P, n); returns a record array of FIT_DTYPE.

    A below-threshold row carries the trace's mean as offset and its
    standard deviation as residual_rms, zero amplitudes and omega, and
    infinite taus. A row whose kept solve used up its evaluation budget
    carries the partial fit with converged=False and exhausted=True.
    """
    t = _fit_times(t_ns)
    if y.shape[1:] != t.shape:
        raise ValueError("time and contrast arrays must match")
    # rows C-contiguous so that every reduction sums a row in the same
    # order whatever the other rows of the block are
    y = np.ascontiguousarray(y, dtype=float)
    n = len(t)

    freq, snr = _periodogram_peaks(t, y)
    below = snr < MIN_SNR
    results = np.zeros(len(y), dtype=FIT_DTYPE).view(np.recarray)
    results.below_threshold = below
    results.offset[below] = np.mean(y[below], axis=1)
    results.residual_rms[below] = np.std(y[below], axis=1)
    results.tau_fast_ns[below] = results.tau_slow_ns[below] = math.inf

    fit = np.flatnonzero(~below)
    yf = y[fit]
    bounds = cfg.omega_bounds or _default_omega_bounds(t)
    x0, x0_d = _seed_rows(t, yf, freq[fit])
    double_mode = cfg.envelope_mode == DOUBLE_EXP
    # the solver overwrites the rows of y it is given; in double mode
    # yf is still needed for the residuals and the double solve
    x, ssq, nfev, conv = _levenberg_marquardt(
        t, yf.copy() if double_mode else yf, x0, 1, bounds)
    # single-exp rows in the double-exp layout [A, B, C, ln tau_f,
    # ln tau_s, Omega, phi] with C = 0 and tau_s = tau_f
    params = x[:, [0, 1, 1, 2, 2, 3, 4]]
    params[:, 2] = 0.0
    rss, ok = ssq, conv
    solved = double = np.zeros(len(fit), dtype=bool)
    if double_mode:
        # the double solve runs only where the single fit leaves misfit
        # above the noise floor of its own residual (see module doc)
        with np.errstate(all="ignore"):
            resid, _ = _model_rows(t, -t, yf, x, 1)
            solved = ssq > DOUBLE_GATE * n * _noise_variance(resid)
        on = np.flatnonzero(solved)
        x_d = np.empty_like(x0_d)
        ssq_d = np.full(len(fit), math.inf)
        nfev_d = np.zeros(len(fit), dtype=int)
        conv_d = np.zeros(len(fit), dtype=bool)
        # a double row outside the omega bounds or still short of the BIC
        # margin after OMEGA_EXIT_EVALS evaluations leaves its solve (see
        # module doc)
        x_d[on], ssq_d[on], nfev_d[on], conv_d[on] = _levenberg_marquardt(
            t, yf[on], x0_d[on], 2, bounds, ssq_single=ssq[on])
        with np.errstate(all="ignore"):
            dbic = _bic_gain(ssq, ssq_d, _rss_floor(yf), n)
            double = (conv_d & (dbic >= BIC_MARGIN)
                      & _in_bounds(x_d[:, 5], bounds))
        params = np.where(double[:, None], x_d, params)
        rss = np.where(double, ssq_d, ssq)
        ok = conv | double
        nfev = nfev + nfev_d

    # fast envelope first; a single-exp row's slow tau is its fast tau,
    # copied, so that a libm rounding two exps apart cannot swap the row
    taus = np.exp(np.clip(params[:, 3:5], -40.0, 40.0))
    taus[~double, 1] = taus[~double, 0]
    swap = taus[:, 0] > taus[:, 1]
    amps = np.where(swap[:, None], params[:, 2:0:-1], params[:, 1:3])
    taus = np.where(swap[:, None], taus[:, ::-1], taus)
    # sin(-wt + phi) == sin(wt + pi - phi)
    omega, phase = params[:, 5], params[:, 6]
    flip = omega < 0
    omega = np.where(flip, -omega, omega)
    phase = np.where(flip, math.pi - phase, phase)
    # -a sin(x) == a sin(x + pi)
    flip = amps[:, 0] + amps[:, 1] < 0
    amps = np.where(flip[:, None], -amps, amps)
    phase = np.where(flip, phase + math.pi, phase)

    fitted = results[fit]
    fitted.offset = params[:, 0]
    fitted.amp_fast, fitted.amp_slow = amps.T
    fitted.tau_fast_ns, fitted.tau_slow_ns = taus.T
    fitted.omega = omega
    fitted.phase = _wrap_phase(phase)
    fitted.residual_rms = np.sqrt(rss / n)
    fitted.converged = ok & _in_bounds(omega, bounds)
    fitted.evaluations = nfev
    fitted.exhausted = ~ok
    fitted.double_solved = solved
    results[fit] = fitted
    return results


def fit_pixel(t_ns, y, cfg=None):
    """Fit one contrast trace; returns its FIT_DTYPE record.

    The trace is fit as a one-row block of the batched fitter that
    fit_cube uses, so it gives the same result bit for bit as the same
    trace fitted inside a cube. Each solve may use MAX_EVALS residual
    evaluations, the first included. How the envelope is chosen
    (DOUBLE_GATE, BIC_MARGIN, the omega bounds) and when a solve stops
    early (OMEGA_EXIT_EVALS) is set out in the module docstring. The
    result's evaluations field counts the residual evaluations of both
    solves, and double_solved says whether the double one ran.

    Every outcome is returned, never raised, and exactly one holds:
    below_threshold when the periodogram SNR is below MIN_SNR (the
    record carries the trace's mean and standard deviation); exhausted,
    with the partial single-exp fit, when the single-exp solve used up
    its budget and no double-exp fit is kept; converged when the fit
    finished with its frequency strictly inside the omega bounds; and
    none of the three when it finished on or outside them, or stopped
    there at OMEGA_EXIT_EVALS.
    """
    if cfg is None:
        cfg = FitConfig()
    return _fit_rows(t_ns, np.asarray(y, dtype=float)[None, :], cfg)[0]


def fit_workers(n_px, requested=None):
    """The processes that fit n_px pixels (fieldcore.workers_for): at
    most one per FIT_SPLIT_PX pixels and `requested`, when given."""
    return workers_for(n_px, FIT_SPLIT_PX, requested)


def _fit_columns(t, parts, cfg, workers):
    """Fit the columns of the (n_frames, m_i) arrays of parts, side by
    side; returns their FIT_DTYPE records as one record array.

    The n columns are cut into blocks of at most min(FIT_BLOCK_PX,
    ceil(n / workers)), dealt out in turn to `workers` processes, at
    most one per block, through fieldcore.run_ranges: this process fits
    blocks 0, workers, 2 workers, ... and forked workers the others,
    writing their records into output_array memory. A block that spans
    several parts is gathered from them alone, so the parts are never
    copied whole. The times are checked before any worker is forked.
    """
    t = _fit_times(t)
    edges = np.cumsum([0] + [p.shape[1] for p in parts])
    n = int(edges[-1])
    size = min(FIT_BLOCK_PX, -(-n // workers))
    blocks = range(0, n, size)
    workers = min(workers, len(blocks))
    out = output_array((n,), FIT_DTYPE, workers)

    def run(j, _):
        # blocks in turn, not contiguous ranges: the fit's cost varies
        # over a map, and one contiguous half of cpw-fig2 or trap-fig4-xz
        # took 1.3-1.7x as long as the other (1.0-1.2x in turn)
        for k in blocks[j::workers]:
            block = np.concatenate([p[:, max(k - e, 0):k + size - e]
                                    for p, e in zip(parts, edges)
                                    if k - p.shape[1] < e < k + size],
                                   axis=1)
            out[k:k + size] = _fit_rows(t, block.T, cfg)

    run_ranges(workers, workers, run)
    return out.view(np.recarray)


def fit_cube(cube, cfg=None, n_workers=1):
    """Fit every pixel of a cube; returns (field map, results), results
    an (nx, ny) record array of FIT_DTYPE. The map carries the cube's
    component.

    Pixels whose trace shows no oscillation above MIN_SNR are
    flagged below_threshold and carry zero field, as do the other
    pixels that did not converge. Each pixel's result equals fit_pixel
    on its trace, so results are independent of n_workers and of the
    block a pixel is fitted in.

    The pixels are fitted by _fit_columns over fit_workers(n_px,
    n_workers) processes: n_workers, at most one per usable CPU and
    one per FIT_SPLIT_PX pixels, each fitting blocks of at most
    FIT_BLOCK_PX pixels dealt out in turn.
    """
    if cfg is None:
        cfg = FitConfig()
    nx, ny = cube.grid.nx, cube.grid.ny
    results = _fit_columns(cube.dt_ns,
                           [cube.frames.reshape(cube.n_frames, nx * ny)],
                           cfg, fit_workers(nx * ny, n_workers or 1))
    results = results.reshape(nx, ny)
    values = np.where(results.converged & np.isfinite(results.omega),
                      omega_to_field(results.omega), 0.0)
    fmap = PolarizedFieldMap(grid=cube.grid, component=cube.component,
                             values=values)
    return fmap, results


def fit_outcome_counts(results):
    """Pixel counts by fit outcome, as *.fit.json reports them.

    Converged, below threshold, budget exhausted (the kept solve ran out
    of evaluations) and omega out of bounds (a finished fit whose omega
    is on or outside the bounds) split n_pixels. A single-envelope fit
    has amp_slow 0 and tau_slow_ns == tau_fast_ns; n_double_solves
    counts the pixels whose double-exp solve ran.
    """
    below = results.below_threshold
    single = (~below & (results.amp_slow == 0.0)
              & (results.tau_slow_ns == results.tau_fast_ns))
    finished = results.converged | below | results.exhausted
    return {"n_pixels": int(results.size),
            "n_converged": int(results.converged.sum()),
            "n_below_threshold": int(below.sum()),
            "n_single_envelope": int(single.sum()),
            "n_double_solves": int(results.double_solved.sum()),
            "n_budget_exhausted": int(results.exhausted.sum()),
            "n_omega_out_of_bounds": int((~finished).sum())}


@dataclass
class ContourRidge:
    """One iso-amplitude ridge: order m, field label (T), pixel path."""

    order_m: int
    b_label: float
    pixels: np.ndarray


@dataclass
class IsoBContourSet:
    dt_mw_ns: float
    ridges: list = field(default_factory=list)
    parity: str = "odd"


def _label_8connected(mask):
    """8-connected components of a 2-D bool mask.

    Returns one (ii, jj) pair of index arrays per component, each in
    raster order, the components in raster order of their first pixel
    (the numbering of scipy.ndimage.label with a 3x3 structure).
    Horizontal runs of set pixels are the nodes; runs in adjacent rows
    join when their column spans touch, diagonals included. Each run
    ends up labeled with the first run of its component by min-label
    hooking and pointer jumping.
    """
    nx, ny = mask.shape
    padded = np.zeros((nx, ny + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    step = np.diff(padded, axis=1)
    row, start = np.nonzero(step == 1)
    end = np.nonzero(step == -1)[1]  # exclusive
    n_runs = len(row)
    if n_runs == 0:
        return []
    # run b in row r + 1 touches run a in row r when start_b <= end_a and
    # start_a <= end_b; the runs of a row are sorted and disjoint, so
    # the touching ones are one contiguous range of run indices
    width = ny + 2
    key = row * width
    lo = np.searchsorted(key + end, key + width + start, side="left")
    hi = np.searchsorted(key + start, key + width + end, side="right")
    n_edges = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(n_runs), n_edges)
    first = np.cumsum(n_edges) - n_edges
    b = np.arange(len(a)) + np.repeat(lo - first, n_edges)

    # root[i] is a run of i's component with root[i] <= i; once every
    # edge joins two runs of equal root, the root of a component is its
    # first run, whose root cannot go lower
    root = np.arange(n_runs)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            break
        low = np.minimum(ra, rb)
        np.minimum.at(root, ra, low)
        np.minimum.at(root, rb, low)
        root = root[root]

    # runs sorted stably by root keep raster order within a component;
    # a run's pixels are consecutive, so the pixels follow in raster order
    order = np.argsort(root, kind="stable")
    length = (end - start)[order]
    stop = np.cumsum(length)
    ii = np.repeat(row[order], length)
    jj = (np.repeat(start[order] - stop + length, length)
          + np.arange(stop[-1]))
    # a component's last run is where the sorted roots change
    last = np.flatnonzero(np.diff(root[order], append=n_runs))
    bounds = [0, *stop[last].tolist()]
    return [(ii[s:e], jj[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]


def _order_pixels_by_angle(pixels):
    center = pixels.mean(axis=0)
    ang = np.arctan2(pixels[:, 1] - center[1], pixels[:, 0] - center[0])
    return pixels[np.argsort(ang, kind="stable")]


def extract_contours(image, dt_mw_ns, min_pixels=8):
    """Iso-amplitude ridges of a single contrast frame.

    Ridges of |contrast| are the bright lines where Omega dt = m pi
    with m odd (even multiples are contrast zeros), so detected ridges
    are labeled m = 1, 3, 5, ... counting inward from the image
    boundary, with field labels b_m = m / (2 GAMMA_NV dt).
    """
    if dt_mw_ns <= 0:
        raise ValueError("dt_mw_ns must be positive")
    a = np.abs(np.asarray(image, dtype=float))
    nx, ny = a.shape
    ridge = np.zeros_like(a, dtype=bool)
    # 1D local maxima along each axis, strict on at least one side, so
    # a ridge pixel of |contrast| is never 0
    ge_l = a[:, 1:-1] >= a[:, :-2]
    ge_r = a[:, 1:-1] >= a[:, 2:]
    gt = (a[:, 1:-1] > a[:, :-2]) | (a[:, 1:-1] > a[:, 2:])
    ridge[:, 1:-1] |= ge_l & ge_r & gt
    ge_u = a[1:-1, :] >= a[:-2, :]
    ge_d = a[1:-1, :] >= a[2:, :]
    gt2 = (a[1:-1, :] > a[:-2, :]) | (a[1:-1, :] > a[2:, :])
    ridge[1:-1, :] |= ge_u & ge_d & gt2

    comps = []
    for ii, jj in _label_8connected(ridge):
        if len(ii) < min_pixels:
            continue
        border_dist = int(np.min(np.minimum(np.minimum(ii, jj),
                                            np.minimum(nx - 1 - ii,
                                                       ny - 1 - jj))))
        center_dist = math.hypot(float(np.mean(ii)) - (nx - 1) / 2,
                                 float(np.mean(jj)) - (ny - 1) / 2)
        comps.append((border_dist, -center_dist, int(ii[0]), int(jj[0]),
                      np.column_stack([ii, jj])))
    comps.sort(key=lambda c: c[:4])

    dt_s = dt_mw_ns * 1e-9
    ridges = []
    for rank, comp in enumerate(comps):
        m = 2 * rank + 1
        ridges.append(ContourRidge(
            order_m=m,
            b_label=m / (2.0 * GAMMA_NV * dt_s),
            pixels=_order_pixels_by_angle(comp[4].astype(float))))
    return IsoBContourSet(dt_mw_ns=dt_mw_ns, ridges=ridges, parity="odd")


# fewest composite pixels a candidate offset must overlap to be scored
_MIN_OVERLAP_PX = 16


def _overlap_score(comp_sum, comp_cnt, tile, di, dj):
    """Normalized cross-correlation of a tile with the running composite."""
    nx, ny = tile.shape
    i0, j0 = max(di, 0), max(dj, 0)
    i1 = min(di + nx, comp_sum.shape[0])
    j1 = min(dj + ny, comp_sum.shape[1])
    if i1 - i0 <= 0 or j1 - j0 <= 0:
        return None
    cnt = comp_cnt[i0:i1, j0:j1]
    valid = cnt > 0
    if int(np.sum(valid)) < _MIN_OVERLAP_PX:
        return None
    ref = (comp_sum[i0:i1, j0:j1][valid] / cnt[valid])
    cut = tile[i0 - di:i1 - di, j0 - dj:j1 - dj][valid]
    ra = ref - ref.mean()
    ca = cut - cut.mean()
    denom = math.sqrt(float(ra @ ra) * float(ca @ ca))
    if denom == 0.0:
        # flat overlap: rank below any true correlation peak
        return -1.0 - float(np.mean((ref - cut) ** 2))
    return float(ra @ ca) / denom


def stitch(tiles, refine=False, search=8):
    """Combine overlapping field-map tiles into one composite map.

    tiles is a list of (PolarizedFieldMap, (di, dj)) with integer pixel
    offsets in a common frame. With refine=True each tile's offset is
    adjusted within +-search pixels to the cross-correlation peak
    against the composite built so far. Overlapping pixels average.
    """
    if not tiles:
        raise ValueError("stitch needs at least one tile")
    first = tiles[0][0]
    for fmap, _ in tiles[1:]:
        if fmap.grid.pitch != first.grid.pitch:
            raise ValueError("tiles must share the same pitch")
        if fmap.component != first.component:
            raise ValueError("tiles must share the same component")
        if not (np.array_equal(fmap.grid.axes[0], first.grid.axes[0])
                and np.array_equal(fmap.grid.axes[1], first.grid.axes[1])):
            raise ValueError("tiles must share the same plane axes")

    offsets = [(int(di), int(dj)) for _, (di, dj) in tiles]
    lo_i = min(di for di, _ in offsets) - (search if refine else 0)
    lo_j = min(dj for _, dj in offsets) - (search if refine else 0)
    hi_i = max(di + f.grid.nx for f, (di, _) in
               zip([t[0] for t in tiles], offsets)) + (search if refine else 0)
    hi_j = max(dj + f.grid.ny for f, (_, dj) in
               zip([t[0] for t in tiles], offsets)) + (search if refine else 0)

    shape = (hi_i - lo_i, hi_j - lo_j)
    comp_sum = np.zeros(shape)
    comp_cnt = np.zeros(shape, dtype=int)

    final_offsets = []
    for (fmap, _), (di, dj) in zip(tiles, offsets):
        di -= lo_i
        dj -= lo_j
        if refine and np.any(comp_cnt > 0):
            best = None
            for ddi in range(-search, search + 1):
                for ddj in range(-search, search + 1):
                    score = _overlap_score(comp_sum, comp_cnt, fmap.values,
                                           di + ddi, dj + ddj)
                    if score is None:
                        continue
                    key = (score, -(ddi * ddi + ddj * ddj), -ddi, -ddj)
                    if best is None or key > best[0]:
                        best = (key, ddi, ddj)
            if best is not None:
                di += best[1]
                dj += best[2]
        nx, ny = fmap.values.shape
        comp_sum[di:di + nx, dj:dj + ny] += fmap.values
        comp_cnt[di:di + nx, dj:dj + ny] += 1
        final_offsets.append((di + lo_i, dj + lo_j))

    covered = comp_cnt > 0
    # trim to the covered bounding box
    ii, jj = np.nonzero(covered)
    i0, i1 = int(ii.min()), int(ii.max()) + 1
    j0, j1 = int(jj.min()), int(jj.max()) + 1
    values = np.zeros((i1 - i0, j1 - j0))
    sub_cnt = comp_cnt[i0:i1, j0:j1]
    sub_cov = sub_cnt > 0
    values[sub_cov] = comp_sum[i0:i1, j0:j1][sub_cov] / sub_cnt[sub_cov]

    g0 = first.grid
    ref_di, ref_dj = final_offsets[0]
    shift_i = (i0 + lo_i) - ref_di
    shift_j = (j0 + lo_j) - ref_dj
    origin = (g0.origin + shift_i * g0.pitch * g0.axes[0]
              + shift_j * g0.pitch * g0.axes[1])
    grid = GridSpec(origin=origin, axes=g0.axes, nx=values.shape[0],
                    ny=values.shape[1], pitch=g0.pitch)
    return PolarizedFieldMap(grid=grid, component=first.component,
                             values=values)


@dataclass
class TrapReport:
    """Location and one-sided gradients of a field minimum."""

    position_px: tuple
    position_m: np.ndarray
    value: float
    gradients: dict  # side tag -> T/m, slope away from the minimum


def characterize_trap(pmap, search_region=None, arm=5):
    """Deepest interior local minimum of a field map and its gradients.

    search_region is ((i0, i1), (j0, j1)) half-open pixel bounds
    (default: whole map). Gradients are linear-fit slopes over `arm`
    pixels (at least 1) on each side along each grid axis.
    """
    if arm < 1:
        raise ValueError(f"arm must be at least 1 pixel, got {arm}")
    a = pmap.values
    nx, ny = a.shape
    if search_region is None:
        (i0, i1), (j0, j1) = (0, nx), (0, ny)
    else:
        (i0, i1), (j0, j1) = search_region
        if not (0 <= i0 < i1 <= nx and 0 <= j0 < j1 <= ny):
            raise ValueError("search region must lie within the grid")

    # interior pixels of the region no greater than their 3x3
    # neighbourhood (a NaN neighbour rules a pixel out); the lowest
    # wins, ties going to the first in raster order
    i0, j0 = max(i0, 1), max(j0, 1)
    window = a[i0 - 1:min(i1, nx - 1) + 1, j0 - 1:min(j1, ny - 1) + 1]
    centre = window[1:-1, 1:-1]
    hits = []
    if centre.size:
        blocks = np.lib.stride_tricks.sliding_window_view(window, (3, 3))
        hits = np.flatnonzero(centre <= blocks.min(axis=(2, 3)))
    if len(hits) == 0:
        raise TrapNotFound("no interior local minimum in the search region")
    di, dj = divmod(int(hits[np.argmin(centre.ravel()[hits])]),
                    centre.shape[1])
    i, j = i0 + di, j0 + dj

    pitch = pmap.grid.pitch
    grads = {}
    for tag, sl in (("axis0_minus", a[i::-1, j]), ("axis0_plus", a[i:, j]),
                    ("axis1_minus", a[i, j::-1]), ("axis1_plus", a[i, j:])):
        pts = sl[:arm + 1]
        if len(pts) >= 2:
            x = np.arange(len(pts)) * pitch
            grads[tag] = float(np.polyfit(x, pts, 1)[0])
        else:
            grads[tag] = math.nan
    return TrapReport(position_px=(i, j),
                      position_m=pmap.grid.pixel_center(i, j),
                      value=float(a[i, j]), gradients=grads)


def amplitude_sensitivity(cubes, measurement_time_s=None):
    """Field amplitude sensitivity in T Hz^-1/2 from repeated cubes.

    Fits the pixels of all repeats as one single-envelope batch, takes
    the per-pixel standard deviation of the fitted field over repeats,
    scales by the square root of the measurement time per cube, and
    reports the median over pixels that converged in every repeat
    (NoConvergedPixel when there is none). The batch is gathered
    block by block from the cubes, so no copy of all repeats is made
    beside them, and fitted by _fit_columns over fit_workers(n_px)
    processes: one per usable CPU, at most one per FIT_SPLIT_PX
    pixels. Each pixel's fit is that of fit_pixel, so the value does
    not depend on the workers. The repeats must share their pulse
    durations and grid shape. measurement_time_s defaults to the summed
    exposure time of the cube's pulse train.
    """
    cubes = list(cubes)
    if len(cubes) < 10:
        raise ValueError("need at least 10 repeated cubes")
    t = cubes[0].dt_ns
    if any(not np.array_equal(c.dt_ns, t) for c in cubes[1:]):
        raise ValueError("repeated cubes must share dt_ns")
    shape = (cubes[0].grid.nx, cubes[0].grid.ny)
    if any((c.grid.nx, c.grid.ny) != shape for c in cubes[1:]):
        raise ValueError(f"repeated cubes must share the {shape[0]}x"
                         f"{shape[1]} grid of the first")
    if measurement_time_s is None:
        pulse = cubes[0].pulse
        if pulse is None:
            raise ValueError(
                "cube carries no pulse parameters; pass measurement_time_s")
        measurement_time_s = float(
            np.sum([pulse.exposure_ns(dt) for dt in t])) * 1e-9
    parts = [c.frames.reshape(c.n_frames, -1) for c in cubes]
    results = _fit_columns(
        t, parts, FitConfig(envelope_mode=SINGLE_EXP),
        fit_workers(len(cubes) * parts[0].shape[1])).reshape(len(cubes), -1)
    fields = omega_to_field(results.omega)
    ok = results.converged.all(axis=0)
    if not np.any(ok):
        raise NoConvergedPixel("no pixel converged across all repeats")
    per_pixel = np.std(fields[:, ok], axis=0, ddof=1)
    return float(np.median(per_pixel)) * math.sqrt(measurement_time_s)


def dynamic_range_db(b_min, b_max):
    """Amplitude dynamic range in dB (equals the dB power ratio)."""
    if b_min <= 0:
        raise ValueError("b_min must be positive")
    if b_max < b_min:
        raise ValueError("b_max must be >= b_min")
    return 20.0 * math.log10(b_max / b_min)


def insertion_loss_db(p_in_dbm, j_mw, z_ohm):
    """Simulated drive power and insertion loss from the on-chip current.

    p_sim = 10 log10(J^2 Z / 1 mW); loss is input power minus p_sim.
    Returns (p_sim_dbm, loss_db).
    """
    if j_mw <= 0:
        raise ValueError("current must be positive")
    if z_ohm <= 0:
        raise ValueError("impedance must be positive")
    p_sim = 10.0 * math.log10(j_mw * j_mw * z_ohm / 1e-3)
    return p_sim, p_in_dbm - p_sim
