"""Statistical and numerical acceptance checks with structured reports.

Every check returns a ``Report`` whose pass criterion is declared up
front: |estimate − target| ≤ tolerance for moment/identity checks;
p ≥ significance for the one-sample check of the norm against its exact
law; and for the exact chamber-label law, max|z| over the |W| labels ≤
the two-sided normal quantile at α/|W|.  Checks draw their randomness
from streams derived off a master seed, so a whole suite is reproducible
bit for bit from (seed, configuration); only the recorded runtimes vary.

A lifted run is X = v·Z over the engine's radial path Z, so π(X_t) = Z_t,
and a check of π(X), ‖X‖ or a W-invariant function of it would test the
engine again.  The suite checks lifted runs only through their chamber
labels and the ridge (non-invariant) martingale functions.  The label law
is rotation covariant: a lift of θR from θx₀ is checked against it too.

Each statistical check is paired with a negative control that feeds it a
deliberately mismatched pair, since a check that cannot fail verifies
nothing.  A control's report is its check's report with the verdict
inverted: it passes exactly when the check fails, and
``details["expected"]`` says why the check must fail there.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import special

from . import rng as rngmod
from .calculus import (
    _coordinate_sum,
    GeneratorSpec,
    TestFunction,
    apply_generator,
    harmonicity_residual,
    rotate_system,
    sample_interior_points,
)
from .errors import InvalidArgumentError, SingularClockError, _integral
from .lift import _stage_prefix, build_lift_plan, label_table, simulate_dunkl
from .radial import SimulationConfig, run_radial
from .root_systems import build_rank_one, chamber_labels, multiplicity

DEFAULT_ALPHA = 0.01         # significance level of every statistical check
_RESIDUAL_POINTS = 1 << 14   # path points per generator call in _path_residuals
POISSON_SHARE = 0.1          # label-law counts with Σp² ≤ this share of Σp are Poisson
WALL_KS = (0.1, 0.3, 0.45, 0.5, 0.6, 1.0)  # wall-profile's k values, across k = 1/2
WALL_X0, WALL_HORIZON, WALL_DT = 0.2, 1.0, 1e-4   # its rank-one start point and grid
_UNRECORDED = "the run holds no recorded paths; simulate it with record=True"


@dataclass
class Report:
    """Outcome of one verification check."""

    name: str
    estimate: float
    stderr: Optional[float]
    tolerance: Optional[float]
    alpha: Optional[float]
    sample_size: int
    passed: bool
    skipped: bool = False
    runtime: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self):
        def clean(v):  # plain JSON types; NaN and ±inf become null
            if isinstance(v, (np.floating, np.integer)):
                v = v.item()
            if isinstance(v, float):
                return v if np.isfinite(v) else None
            if isinstance(v, np.ndarray):
                return clean(v.tolist())
            if isinstance(v, dict):
                return {kk: clean(vv) for kk, vv in v.items()}
            if isinstance(v, (list, tuple)):
                return [clean(vv) for vv in v]
            if isinstance(v, np.bool_):
                return bool(v)
            return v

        return {
            "name": self.name,
            "estimate": clean(self.estimate),
            "stderr": clean(self.stderr),
            "tolerance": clean(self.tolerance),
            "alpha": clean(self.alpha),
            "sample_size": int(self.sample_size),
            "passed": bool(self.passed),
            "skipped": bool(self.skipped),
            "runtime": float(self.runtime),
            "details": clean(self.details),
        }


def reports_to_json(reports, **kwargs):
    return json.dumps([r.to_dict() for r in reports], **kwargs)


def render_table(reports):
    lines = []
    header = f"{'check':42s} {'estimate':>12s} {'crit':>10s} {'n':>7s} {'time':>7s} status"
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        crit = ""
        if r.tolerance is not None:
            crit = f"tol {r.tolerance:g}"
        elif r.alpha is not None:
            crit = f"α {r.alpha:g}"
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        lines.append(
            f"{r.name:42s} {r.estimate:12.5g} {crit:>10s} {r.sample_size:7d} "
            f"{r.runtime:6.1f}s {status}"
        )
    return "\n".join(lines)


def derived_seed(master, tag):
    """Stable 32-bit seed for a named sub-experiment: the first uint32 word
    of the ``(master, CHECK, crc32(tag))`` stream's key."""
    key = rngmod.keys(master, rngmod.CHECK, zlib.crc32(tag.encode()))
    return int(key[0]) & 0xFFFFFFFF


def _kept_paths(stop_index, termination):
    """Mask of the paths, by last grid index and termination label, that
    ran the whole grid to the horizon; the others cannot share the common
    grid and are dropped.  More than 5% dropped is an error, as are no paths.
    """
    if not len(stop_index):
        raise InvalidArgumentError(_UNRECORDED)
    stop_index = np.asarray(stop_index)
    kept = (stop_index == stop_index.max()) & (np.asarray(termination) == "horizon")
    frac = 1.0 - kept.mean()
    if frac > 0.05:
        raise InvalidArgumentError(
            f"{frac:.1%} of paths terminated early; check the regime")
    return kept


# ---------------------------------------------------------------------------
# test-function battery


def _times(c, x):
    """c[..., None]·x by columns: numpy broadcasts slowly over a short last axis."""
    out = np.empty(c.shape + x.shape[-1:])
    for i in range(x.shape[-1]):
        np.multiply(c, x[..., i], out=out[..., i])
    return out


def _radial_function(f, df, d2f, name):
    """u(x) = f(‖x‖²): ∇u = 2f′x and Δu = 2n·f′ + 4‖x‖²·f″."""
    def derivatives(x):
        s = _coordinate_sum(x * x)
        slope = df(s)
        return _times(2.0 * slope, x), 2.0 * x.shape[-1] * slope + 4.0 * s * d2f(s)

    return TestFunction(lambda x: f(_coordinate_sum(x * x)), name=name,
                        derivatives=derivatives)


@dataclass(frozen=True)
class _RidgeFunction(TestFunction):
    """u(x) = g(x·v): not W-invariant, so a jump of X moves it."""


def _ridge_function(v, g, dg, d2g, name):
    """u(x) = g(x·v): ∇u = g′·v and Δu = ‖v‖²·g″."""
    v_sq = float(v @ v)

    def derivatives(x):
        t = x @ v
        return _times(dg(t), v), v_sq * d2g(t)

    return _RidgeFunction(lambda x: g(x @ v), name=name, derivatives=derivatives)


def function_battery(dim):
    """Five smooth functions with distinct symmetry and growth profiles: three
    functions of ‖x‖² (W-invariant) and two ridge functions."""
    v = np.arange(1, dim + 1, dtype=float)
    v /= np.linalg.norm(v)
    w = np.array([(-1.0) ** i * (0.8 + 0.1 * i) for i in range(dim)])

    return [
        _radial_function(lambda s: s, np.ones_like, np.zeros_like, "sq_norm"),
        _radial_function(lambda s: np.exp(-0.25 * s),
                         lambda s: -0.25 * np.exp(-0.25 * s),
                         lambda s: 0.0625 * np.exp(-0.25 * s), "gauss"),
        _ridge_function(v, lambda t: t, np.ones_like, np.zeros_like, "linear"),
        _ridge_function(w, np.sin, np.cos, lambda t: -np.sin(t), "sine"),
        _radial_function(lambda s: 1.0 / (1.0 + s),
                         lambda s: -1.0 / (1.0 + s) ** 2,
                         lambda s: 2.0 / (1.0 + s) ** 3, "inv_quad"),
    ]


def control_function(dim):
    """A deliberately non-symmetric function: sensitive to missing jump terms."""
    v = np.zeros(dim)
    v[0] = 1.0
    return _ridge_function(v, lambda t: t, np.ones_like, np.zeros_like, "first_coord")


# ---------------------------------------------------------------------------
# martingale residuals


def calibrate_bias_coefficient(system, t, n_paths, seed):
    """Per-dt bias allowance from the zero-multiplicity (Brownian) case.

    With k ≡ 0 the generator is ½Δ, Brownian marginals are exact, and the
    only systematic residual is the left-Riemann error of the time
    integral, (dt/2)·(E g(X_0) − E g(X_T)) + O(dt²) for g = ½Δu.  The
    returned c is the largest such half-difference over the battery, with
    a two-sigma sampling margin, so b(dt) = c·dt covers the quadrature
    bias at any step size.  ``n_paths`` must be an integer ≥ 2, since the
    margin needs a sample standard deviation.
    """
    if not _integral(n_paths) or n_paths < 2:
        raise InvalidArgumentError(f"n_paths must be an integer of at least 2, got {n_paths!r}")
    n = system.dimension
    rng = rngmod.stream(rngmod.keys(seed, rngmod.CHECK, 0))
    x0 = np.arange(2 * n, n, -1, dtype=float)  # generic off-wall start
    finals = x0 + np.sqrt(t) * rng.standard_normal((n_paths, n))
    k0 = multiplicity(system, 0.0)
    spec = GeneratorSpec.radial(system, k0)
    c = 0.0
    for u in function_battery(n):
        g0 = float(apply_generator(spec, u, x0))
        gt = apply_generator(spec, u, finals)
        se = float(gt.std(ddof=1) / np.sqrt(n_paths))
        c = max(c, 0.5 * (abs(float(gt.mean()) - g0) + 2.0 * se))
    return float(c)


def _path_residuals(paths, times, spec, u):
    """u(X_T) − u(X_0) − Σ A u(X_{t_j}) Δt_j per path (left Riemann sum).

    ``paths`` holds each path's (M+1, n) states on ``times``.  The generator
    runs on blocks of whole paths of about ``_RESIDUAL_POINTS`` points, each
    block copied into one (P·(M+1), n) array; the value at each path's last
    point is computed and dropped.  The sum over steps stays one product
    over all paths: a BLAS product may round a row differently on fewer rows.
    """
    n_points = len(times)
    au = np.empty((len(paths), n_points - 1))
    block = max(1, _RESIDUAL_POINTS // max(1, n_points - 1))
    for lo in range(0, len(paths), block):
        points = np.concatenate(paths[lo:lo + block])
        au[lo:lo + block] = apply_generator(spec, u, points).reshape(-1, n_points)[:, :-1]
    ends = np.array([(p[0], p[-1]) for p in paths])
    return u(ends[:, 1]) - u(ends[:, 0]) - au @ np.diff(times)


def martingale_residual(sample_paths, spec, u, *, bias_allowance=0.0,
                        name="martingale"):
    """Mean martingale residual of ``u`` under the declared generator.

    ``sample_paths`` is a zero-argument callable returning recorded
    trajectories, read block by block; pass iff |mean| ≤ 3·SE + bias allowance.
    """
    trajs = sample_paths()
    if trajs is None:
        raise InvalidArgumentError(_UNRECORDED)
    mask = _kept_paths([len(t.times) - 1 for t in trajs], [t.termination for t in trajs])
    kept = [t for t, keep in zip(trajs, mask) if keep]
    resid = _path_residuals([t.states for t in kept], kept[0].times, spec, u)
    est = float(resid.mean())
    se = float(resid.std(ddof=1) / np.sqrt(len(resid)))
    tol = 3.0 * se + bias_allowance
    return Report(
        name=name,
        estimate=est,
        stderr=se,
        tolerance=tol,
        alpha=None,
        sample_size=len(kept),
        passed=abs(est) <= tol,
        details={"bias_allowance": bias_allowance, "function": u.name,
                 "dropped_paths": len(trajs) - len(kept)},
    )


# ---------------------------------------------------------------------------
# one-dimensional Bessel Euler scheme (no check uses it)


def bessel_em_oracle(dim, x0, horizon, dt, n_paths, rng, absorb_eps=1e-8):
    """Plain 1-D Euler scheme for dX = dβ + ((dim−1)/2)/X dt.

    Paths are absorbed when they propose a value ≤ ``absorb_eps``; returns
    (final values, hit mask).  No check calls it: ``norm_is_bessel`` tests
    against the exact law.  It stays while perfbench's span tracer wraps
    it, since a traced run reports a missing entry point as absent.
    """
    n_steps = int(round(horizon / dt))
    x = np.full(n_paths, float(x0))
    alive = np.ones(n_paths, dtype=bool)
    coef = 0.5 * (dim - 1.0)
    sq = np.sqrt(dt)
    idx = None  # the alive paths; None until the first absorption
    for _ in range(n_steps):
        xa = x if idx is None else x[idx]
        prop = xa + coef / xa * dt + sq * rng.standard_normal(len(xa))
        hit = prop <= absorb_eps
        if idx is None and not hit.any():
            x = prop
            continue
        idx = np.arange(n_paths) if idx is None else idx
        x[idx[~hit]] = prop[~hit]
        if hit.any():
            x[idx[hit]] = np.maximum(prop[hit], 0.0)
            alive[idx[hit]] = False
            idx = np.nonzero(alive)[0]
            if not len(idx):
                break
    return x, ~alive


def norm_is_bessel(norm_samples, dim, start_norm, horizon, *, seed=0,
                   name="norm-bessel"):
    """One-sample KS of ‖X_T‖²/T against its exact law ncx2(dim, ‖x₀‖²/T).

    ‖X‖ is a Bessel process of dimension ``dim`` = n + 2γ, so ‖X_T‖²/T is
    noncentral chi-squared (the BESQ transition law, Revuz–Yor ch. XI).
    The statistic is D = max(D⁺, D⁻) over the sorted sample, as in
    ``scipy.stats.kstest``.  The p-value is the exact one-sided tail
    P(D⁺ ≥ D) (Birnbaum–Tingey, ``special.smirnov``) doubled and capped at 1.
    That bounds the exact two-sided p-value from above, so the check is
    conservative, and exceeds it only by O(p²) (Simard–L'Ecuyer 2011).
    The check draws no random numbers; ``seed`` is accepted and unused.
    """
    sq = np.asarray(norm_samples, dtype=float)**2
    noncentrality = start_norm**2 / horizon
    n = len(sq)
    cdf = special.chndtr(np.sort(sq / horizon), dim, noncentrality)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    statistic = float(max(d_plus, d_minus))
    pvalue = min(1.0, 2.0 * float(special.smirnov(n, statistic)))
    mean_obs = float(np.mean(sq))
    mean_target = start_norm**2 + dim * horizon
    se = float(np.std(sq, ddof=1) / np.sqrt(n))
    return Report(
        name=name,
        estimate=pvalue,
        stderr=None,
        tolerance=None,
        alpha=DEFAULT_ALPHA,
        sample_size=n,
        passed=pvalue >= DEFAULT_ALPHA,
        details={
            "ks_statistic": statistic,
            "dim": dim,
            "noncentrality": noncentrality,
            "mean_sq_norm": mean_obs,
            "mean_sq_target": mean_target,
            "mean_within_3se": bool(abs(mean_obs - mean_target) <= 3 * se),
        },
    )


def moment_besq(sq_norm_samples, x0, gamma, dim, horizon, name="moment-besq"):
    """Sample mean of ‖X_T‖² against ‖x₀‖² + (n + 2γ)·T within 3 SE."""
    samples = np.asarray(sq_norm_samples, dtype=float)
    target = float(np.dot(x0, x0) + (dim + 2.0 * gamma) * horizon)
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
    return Report(
        name=name,
        estimate=est,
        stderr=se,
        tolerance=3.0 * se,
        alpha=None,
        sample_size=len(samples),
        passed=abs(est - target) <= 3.0 * se,
        details={"target": target, "deviation": est - target},
    )


# ---------------------------------------------------------------------------
# the chamber label given the radial path


def _poisson_z(count, mean):
    """Signed normal score of the nearer tail of a Poisson(mean) count."""
    upper = np.where(count > 0, special.pdtrc(np.maximum(count - 1, 0), mean), 1.0)
    lower = special.pdtr(count, mean)
    score = np.maximum(-special.ndtri(np.minimum(upper, lower)), 0.0)
    return np.where(upper < lower, score, -score)


def label_law(run, plan, *, stages=None, name="label-law"):
    """Each path's final chamber label against its exact law given the
    path's own radial part Y: the skew product X = w·Y read as a law.

    Given Y, w is a Markov chain on W.  A jump of X across α is w → w·σ_β,
    β = w⁻¹α, at rate c(β)/(β·Y)² (the rates are W-invariant), active at
    prefix ``stages`` only where w·β ∈ ±{α_1, …, α_stages}
    (``lift.label_table``).  Per grid step and root (Lie–Trotter),
    p ← a·p + (1 − a)·p∘(w ↦ wσ_β), with a = (1 + e^{−2Λ})/2 and
    Λ = c·h/(d₀·d₁) exact along the straight segment, d = β·Y.

    A label's count is a Poisson-binomial sum of the p_i(w).  Where
    Σp_i² ≤ ``POISSON_SHARE``·Σp_i, so that most of its mass comes from
    paths that rarely reach the label, the count is within Σp_i² of
    Poisson(Σp_i) in total variation (Le Cam), and its nearer Poisson tail
    P gives z = ±isf(P); likewise for the count of the other labels where
    Σ(1 − p_i)² is that small.  Elsewhere z = Σ(1{w_i = w} − p_i(w)) /
    √Σ p_i(w)(1 − p_i(w)), ±∞ where the variance is zero and the count is
    off.  Pass iff max|z| ≤ the normal quantile at α/(2|W|), α =
    ``DEFAULT_ALPHA``.  The cost is about |W|·m operations per grid step and
    path, read from ``run.states`` (copied only when paths were dropped).
    Raises ``SingularClockError`` if a path touches a wall on the grid.
    """
    system, stages = plan.system, _stage_prefix(plan, stages)
    if run.states is None:
        raise InvalidArgumentError(_UNRECORDED)
    kept = _kept_paths(run.stop_index, run.termination)
    times, states = run.times, run.states if kept.all() else run.states[kept]
    pos_t, n_labels = np.ascontiguousarray(system.positive_roots.T), len(system.weyl_group)
    root, flip = label_table(plan, stages)

    labels = chamber_labels(system, states[:, [0, -1]])
    p = np.zeros((n_labels, len(states)))
    p[labels[:, 0], np.arange(len(states))] = 1.0
    rate = np.asarray(plan.rates)[np.argsort(plan.enumeration)]
    for t in range(0, len(times) - 1, 64):  # blocks of grid steps bound the temporaries
        x = states[:, t:t + 65]
        # β·Y = β·w⁻¹x = |α·x| for the α = ±w·β
        d = np.take_along_axis(np.abs(x @ pos_t), root[chamber_labels(system, x)], axis=-1)
        if np.any(d <= 0.0):
            raise SingularClockError("the radial path touches a wall on the grid")
        lam = rate * np.diff(times[t:t + 65])[:, None] / (d[:, :-1] * d[:, 1:])
        moved = -0.5 * np.expm1(-2.0 * np.ascontiguousarray(np.moveaxis(lam, 0, -1)))
        for step in moved:  # 1 − a, as (steps, m, N)
            for b, share in enumerate(step):
                p += share * (p[flip[:, b]] - p)

    n = len(states)
    observed = np.bincount(labels[:, -1], minlength=n_labels)
    expected, var = p.sum(axis=1), np.sum(p * (1.0 - p), axis=1)
    diff = observed - expected
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / np.sqrt(var))
    rare = np.sum(p * p, axis=1) <= POISSON_SHARE * expected
    common = np.sum((1.0 - p) ** 2, axis=1) <= POISSON_SHARE * (n - expected)
    z = np.where(rare, _poisson_z(observed, expected),
                 np.where(common, -_poisson_z(n - observed, n - expected), z))
    worst = float(np.max(np.abs(z)))
    bound = float(-special.ndtri(DEFAULT_ALPHA / (2 * n_labels)))
    return Report(name=name, estimate=worst, stderr=None, tolerance=bound, alpha=DEFAULT_ALPHA,
                  sample_size=int(kept.sum()), passed=worst <= bound,
                  details={"z": z, "expected": expected, "observed": observed,
                           "stages": stages, "dropped_paths": int((~kept).sum())})


# ---------------------------------------------------------------------------
# wall-hitting profile


def wall_hitting_profile(n_paths, seed, *, name="wall-profile", threads=1,
                         mislabel_shift=0):
    """Hit fractions of the rank-1 process across the k = 1/2 boundary.

    The paths start at ``WALL_X0`` and run to ``WALL_HORIZON`` in steps of
    ``WALL_DT``, once for each k in ``WALL_KS``.  Pass: fractions
    nonincreasing in k, ≥ 50% at k = 0.1, ≤ 1% for k ≥ 0.6.
    ``mislabel_shift`` rotates the simulated samples against the k labels —
    the negative control (simulating k = 1 data into the k = 0.1 slot must
    break the profile).
    """
    system = build_rank_one()
    fractions = []
    stepfail = []
    for i, kval in enumerate(WALL_KS):
        k_sim = WALL_KS[(i + mislabel_shift) % len(WALL_KS)]
        cfg = SimulationConfig(horizon=WALL_HORIZON, dt=WALL_DT, n_paths=n_paths,
                               seed=derived_seed(seed, f"{name}:{i}"))
        run = run_radial(system, multiplicity(system, k_sim), [WALL_X0], cfg,
                         record=False, threads=threads)
        fractions.append(run.hit_fraction)
        stepfail.append(float(np.mean(run.termination == "step_failure")))
    fractions = np.array(fractions)
    nonincreasing = bool(np.all(np.diff(fractions) <= 0))
    low_k_ok = bool(fractions[0] >= 0.5)
    high_k_ok = bool(np.all(fractions[np.asarray(WALL_KS) >= 0.6] <= 0.01))
    return Report(
        name=name,
        estimate=float(fractions[0]),
        stderr=None,
        tolerance=None,
        alpha=None,
        sample_size=n_paths,
        passed=nonincreasing and low_k_ok and high_k_ok,
        details={
            "k_values": list(WALL_KS),
            "hit_fractions": fractions.tolist(),
            "step_failure_fractions": stepfail,
            "nonincreasing": nonincreasing,
            "low_k_ok": low_k_ok,
            "high_k_ok": high_k_ok,
        },
    )


# ---------------------------------------------------------------------------
# rotated systems


def haar_orthogonal(n, rng):
    """Haar-distributed orthogonal matrix via sign-fixed QR."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# harmonicity spot check


def harmonic_identities(k):
    """(which, k, tol, report name, seed tag) of each harmonicity identity
    that applies at ``k``: δ̄ needs a k = 1/2 orbit, π^{1−2k} is taken at 0.8."""
    rows = [("delta", k, 1e-5, "harmonic-delta", "harmonic-delta"),
            ("delta_bar", k, 1e-5, "harmonic-delta_bar", "harmonic-deltabar"),
            ("pi", k, 1e-6, "harmonic-pi", "harmonic-pi"),
            ("pi_power", 0.8, 1e-6, "harmonic-pi_power", "harmonic-pipow")]
    return [row for row in rows if row[0] != "delta_bar" or 0.5 in k.by_orbit]


def harmonicity_check(system, k, *, n_points=100, seed=0, tol=1e-5,
                      which="delta", name=None):
    """Max relative residual of a harmonicity identity at random points (an exact 0 is 0)."""
    if not _integral(n_points) or n_points < 1:
        raise InvalidArgumentError(f"n_points must be an integer of at least 1, got {n_points!r}")
    if name is None:
        name = f"harmonic-{which}"
    rng = rngmod.stream(rngmod.keys(seed, rngmod.CHECK, 4))
    pts = sample_interior_points(system, n_points, rng)
    res, scale = harmonicity_residual(system, k, which, pts)
    worst = float(np.max(np.abs(res) / np.where(res == 0.0, 1.0, scale)))
    return Report(
        name=name,
        estimate=worst,
        stderr=None,
        tolerance=tol,
        alpha=None,
        sample_size=n_points,
        passed=worst <= tol,
        details={"which": which},
    )


# ---------------------------------------------------------------------------
# the assembled battery


def _norm_control_offset(dim):
    """``ks-norm:control``'s dimension error: a tenth (off by one passes at 36), at least 1."""
    return max(1, round(0.1 * dim))


def _control(report, expected):
    """Turn a check's report into its negative control's: the control passes
    exactly when the check fails, and ``expected`` says why it must fail."""
    report.passed = not report.passed
    report.details["expected"] = expected
    return report


def run_suite(system, k, x0, *, horizon=1.0, dt=1e-3, n_paths=2000,
              seed=0, k_prime=None, threads=1):
    """Run the full verification battery for one (system, k, x₀) setup.

    Returns a list of reports.  Controls (deliberately mismatched pairs)
    carry a ":control" suffix and pass exactly when the underlying check
    fails, so a fully green list means the checks verify what they claim.
    """
    reports = []
    x0 = np.asarray(x0, dtype=float)
    n = system.dimension
    dim_besq = n + 2.0 * k.gamma
    start = float(np.linalg.norm(x0))
    k_plus = multiplicity(system, [v + 0.5 for v in k.by_orbit])
    if k_prime is None:
        k_prime = k_plus

    def cfg(tag, paths=n_paths):
        return SimulationConfig(horizon=horizon, dt=dt, n_paths=paths,
                                seed=derived_seed(seed, tag))

    def add(fn, *args, control=None, **kw):
        t0 = time.perf_counter()
        rep = fn(*args, **kw)
        rep.runtime = time.perf_counter() - t0
        reports.append(rep if control is None else _control(rep, control))
        return rep

    # deterministic identities
    for which, k_id, tol, name, tag in harmonic_identities(k):
        add(harmonicity_check, system, k_id, which=which, tol=tol, name=name,
            seed=derived_seed(seed, tag))

    # the radial law
    radial = run_radial(system, k, x0, cfg("radial"), record=False, threads=threads)
    sq = np.einsum("ij,ij->i", radial.final_states, radial.final_states)
    add(moment_besq, sq, x0, k.gamma, n, horizon, name="moment-besq-radial")
    radial_norms = np.sqrt(sq)
    add(norm_is_bessel, radial_norms, dim_besq, start, horizon, name="ks-norm-radial")
    offset = _norm_control_offset(dim_besq)
    add(norm_is_bessel, radial_norms, dim_besq - offset, start, horizon, name="ks-norm:control",
        control=f"off-by-{'one' if offset == 1 else offset} dimension must be rejected")

    # the chamber label given the radial path, in both modes, at k′ and after a rotation
    mart_paths = max(800, n_paths // 2)
    plan = build_lift_plan(system, k, mode="auto")
    plan_kp = build_lift_plan(system, k, rates=k_prime, mode="auto")
    two_param = simulate_dunkl(plan_kp, x0, cfg("mart-kp", mart_paths), threads=threads)
    if len(system.weyl_group) > 48:  # the order of B3
        reports.append(Report(
            name="label-law", estimate=float("nan"), stderr=None, tolerance=None,
            alpha=None, sample_size=0, passed=True, skipped=True,
            details={"reason": f"|W| = {len(system.weyl_group)} > 48, the order of B3"}))
    else:
        full = simulate_dunkl(plan, x0, cfg("full"), threads=threads)
        add(label_law, full, plan, name="label-law-full")
        plan_general = build_lift_plan(system, k, mode="general")
        general = simulate_dunkl(plan_general, x0, cfg("label-general"), threads=threads)
        add(label_law, general, plan_general, name="label-law-general")
        add(label_law, two_param, plan_kp, name="label-law-two-param")
        add(label_law, full, build_lift_plan(system, k, rates=k_plus, mode="auto"),
            name="label-law:control", control="mismatched jump rates must be rejected")
        # the same law on a lift of θR from θx₀, θ drawn from the run's CHECK stream
        rot_cfg = cfg("label-rotated")
        theta = haar_orthogonal(n, rngmod.stream(rngmod.keys(rot_cfg.seed, rngmod.CHECK, 0)))
        rotated = rotate_system(system, theta)
        rot_plan = build_lift_plan(rotated, multiplicity(rotated, k.by_orbit), mode="auto")
        rot_run = simulate_dunkl(rot_plan, theta @ x0, rot_cfg, threads=threads)
        add(label_law, rot_run, rot_plan, name="label-law-rotated")
        add(label_law, rot_run,
            build_lift_plan(rotated, rot_plan.k, rates=multiplicity(rotated, k_plus.by_orbit)),
            name="label-law-rotated:control", control="mismatched jump rates must be rejected")

    # wall-hitting profile (rank-1, fixed setup)
    wall_paths = max(800, n_paths // 4)
    add(wall_hitting_profile, wall_paths, derived_seed(seed, "wall"),
        threads=threads)
    add(wall_hitting_profile, wall_paths, derived_seed(seed, "wall-ctrl"),
        mislabel_shift=5, name="wall-profile:control", threads=threads,
        control="mislabeled simulations must break the profile")

    # martingale residual battery; a W-invariant u has u(X) = u(Z) and no
    # jump terms, so lifted runs take only the ridge functions
    bias_c = calibrate_bias_coefficient(system, horizon, 4000,
                                        derived_seed(seed, "bias"))
    spec_radial = GeneratorSpec.radial(system, k)
    full_paths = simulate_dunkl(plan, x0, cfg("mart-full", mart_paths),
                                threads=threads).trajectories
    runs = [
        ("radial", run_radial(system, k, x0, cfg("mart", mart_paths), record=True,
                              threads=threads).trajectories, spec_radial),
        ("full", full_paths, GeneratorSpec.full(system, k)),
        ("two-param", two_param.trajectories,
         GeneratorSpec.full(system, k, jump_k=k_prime)),
    ]
    allowance = bias_c * dt
    for u in function_battery(n):
        for tag, paths, spec in runs if isinstance(u, _RidgeFunction) else runs[:1]:
            rep = add(martingale_residual, lambda p=paths: p, spec, u,
                      bias_allowance=allowance, name=f"martingale-{tag}-{u.name}")
            rep.details["bias_coefficient"] = bias_c
    rep = add(martingale_residual, lambda: full_paths, spec_radial,
              control_function(n), bias_allowance=allowance, name="martingale:control",
              control="full paths against the radial generator must fail")
    rep.details["bias_coefficient"] = bias_c
    return reports


def suite_passed(reports):
    return all(r.passed for r in reports if not r.skipped)
