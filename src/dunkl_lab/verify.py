"""Statistical and numerical acceptance checks with structured reports.

Every check returns a ``Report`` whose pass criterion is declared up
front: |estimate − target| ≤ tolerance for moment/identity checks;
p ≥ significance for distribution checks, either one-sample against an
exact law (the norm) or two-sample (Bonferroni across coordinates inside
a check); and for the exact chamber-label law, max|z| over the |W|
labels ≤ the two-sided normal quantile at α/|W|.  Checks draw their
randomness from streams derived off a master seed, so a whole
suite is reproducible bit for bit from (seed, configuration); only the
recorded runtimes vary.

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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import stats as sps

from . import rng as rngmod
from .calculus import (
    _coordinate_sum,
    GeneratorSpec,
    TestFunction,
    apply_generator,
    generator_scale,
    harmonicity_residual,
    rotate_spec,
    rotate_system,
    sample_interior_points,
)
from .errors import InvalidArgumentError, SingularClockError
from .lift import build_lift_plan, simulate_dunkl
from .radial import SimulationConfig, run_radial
from .root_systems import (
    Multiplicity,
    build_rank_one,
    chamber_labels,
    multiplicity,
    project_batch,
    reflect,
)

DEFAULT_ALPHA = 0.01         # significance level of every statistical check
_RESIDUAL_POINTS = 1 << 14   # path points per generator call in _path_residuals
ROTATION_TOL = 1e-6          # relative residual bound of rotate-generator
MIN_WALL_DOT = 0.2           # rotate-generator's points keep |x·α| above this
WALL_KS = (0.1, 0.3, 0.45, 0.5, 0.6, 1.0)  # wall-profile's k values, across k = 1/2
WALL_X0, WALL_HORIZON, WALL_DT = 0.2, 1.0, 1e-4   # its rank-one start point and grid


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
        def clean(v):
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, np.ndarray):
                return v.tolist()
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


def stack_paths(trajectories):
    """(times, states (N, M+1, n)) for paths that reached the horizon.

    Returns the kept-path mask as third element; early-terminated paths
    cannot be stacked on the common grid and are dropped, and more than 5%
    of them is an error.
    """
    full_len = max(len(t.times) for t in trajectories)
    kept = np.array([len(t.times) == full_len and t.termination == "horizon"
                     for t in trajectories])
    frac = 1.0 - kept.mean()
    if frac > 0.05:
        raise InvalidArgumentError(
            f"{frac:.1%} of paths terminated early; check the regime")
    idx = np.nonzero(kept)[0]
    times = trajectories[idx[0]].times
    states = np.stack([trajectories[i].states for i in idx])
    return times, states, kept


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
    def laplacian(x):
        s = _coordinate_sum(x * x)
        return 2.0 * x.shape[-1] * df(s) + 4.0 * s * d2f(s)

    return TestFunction(lambda x: f(_coordinate_sum(x * x)), name=name, laplacian=laplacian,
                        grad=lambda x: _times(2.0 * df(_coordinate_sum(x * x)), x))


def _ridge_function(v, g, dg, d2g, name):
    """u(x) = g(x·v): ∇u = g′·v and Δu = ‖v‖²·g″."""
    v_sq = float(v @ v)
    return TestFunction(lambda x: g(x @ v), name=name, grad=lambda x: _times(dg(x @ v), v),
                        laplacian=lambda x: v_sq * d2g(x @ v))


def function_battery(dim):
    """Five smooth functions with distinct symmetry and growth profiles."""
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
    bias at any step size.
    """
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


def _path_residuals(states, times, spec, u):
    """u(X_T) − u(X_0) − Σ A u(X_{t_j}) Δt_j per path (left Riemann sum).

    The generator runs on blocks of about ``_RESIDUAL_POINTS`` points; the
    sum over steps stays one product over all paths, since a BLAS product
    may round a row differently when it gets fewer rows.
    """
    au = np.empty(states[:, :-1, 0].shape)
    block = max(1, _RESIDUAL_POINTS // max(1, au.shape[1]))
    for lo in range(0, len(au), block):
        au[lo:lo + block] = apply_generator(spec, u, states[lo:lo + block, :-1, :])
    return u(states[:, -1, :]) - u(states[:, 0, :]) - au @ np.diff(times)


def martingale_residual(sample_paths, spec, u, *, bias_allowance=0.0,
                        name="martingale"):
    """Mean martingale residual of ``u`` under the declared generator.

    ``sample_paths`` is a zero-argument callable returning recorded
    trajectories; pass iff |mean| ≤ 3·SE + bias allowance.
    """
    trajs = sample_paths()
    times, states, kept = stack_paths(trajs)
    resid = _path_residuals(states, times, spec, u)
    est = float(resid.mean())
    se = float(resid.std(ddof=1) / np.sqrt(len(resid)))
    tol = 3.0 * se + bias_allowance
    return Report(
        name=name,
        estimate=est,
        stderr=se,
        tolerance=tol,
        alpha=None,
        sample_size=int(kept.sum()),
        passed=abs(est) <= tol,
        details={"bias_allowance": bias_allowance, "function": u.name,
                 "dropped_paths": int((~kept).sum())},
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
    The check draws no random numbers; ``seed`` is accepted and unused.
    """
    sq = np.asarray(norm_samples, dtype=float)**2
    noncentrality = start_norm**2 / horizon
    res = sps.kstest(sq / horizon, sps.ncx2(df=dim, nc=noncentrality).cdf)
    mean_obs = float(np.mean(sq))
    mean_target = start_norm**2 + dim * horizon
    se = float(np.std(sq, ddof=1) / np.sqrt(len(sq)))
    return Report(
        name=name,
        estimate=float(res.pvalue),
        stderr=None,
        tolerance=None,
        alpha=DEFAULT_ALPHA,
        sample_size=len(sq),
        passed=bool(res.pvalue >= DEFAULT_ALPHA),
        details={
            "ks_statistic": float(res.statistic),
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
# projection agreement


def _coordinate_ks(a, b, name, sample_size, **details):
    """Two-sample KS of each coordinate of ``a`` against ``b`` at level
    ``DEFAULT_ALPHA``, Bonferroni across the coordinates."""
    n = a.shape[1]
    pvals = [float(sps.ks_2samp(a[:, i], b[:, i]).pvalue) for i in range(n)]
    threshold = DEFAULT_ALPHA / n
    return Report(
        name=name,
        estimate=float(min(pvals)),
        stderr=None,
        tolerance=None,
        alpha=threshold,
        sample_size=sample_size,
        passed=bool(min(pvals) >= threshold),
        details={"pvalues": pvals, **details},
    )


def projection_agreement(full_states, radial_states, system, *, name="projection"):
    """Coordinatewise KS between π(Y_T) and the radial X_T (Bonferroni)."""
    projected = project_batch(system, np.asarray(full_states, dtype=float))
    return _coordinate_ks(projected, np.asarray(radial_states, dtype=float),
                          name, len(projected), bonferroni_m=system.dimension)


# ---------------------------------------------------------------------------
# the chamber label given the radial path


def label_law(run, plan, *, stages=None, name="label-law"):
    """Each path's final chamber label against its exact law given the
    path's own radial part Y: the skew product X = w·Y read as a law.

    Given Y, w is a Markov chain on W.  A jump of X across α is w → w·σ_β,
    β = w⁻¹α, at rate c(β)/(β·Y)² (the rates are W-invariant), active at
    prefix ``stages`` only where w·β ∈ ±{α_1, …, α_stages}.  Per grid step
    and root (Lie–Trotter), p ← a·p + (1 − a)·p∘(w ↦ wσ_β), with
    a = (1 + e^{−2Λ})/2 and Λ = c·h/(d₀·d₁) exact along the straight
    segment, d = β·Y.  Per label, z = Σ(1{w_i = w} − p_i(w)) / √Σ p_i(w)(1 −
    p_i(w)), ±∞ where the variance is zero and the count is off; pass iff
    max|z| ≤ the normal quantile at α/(2|W|), α = ``DEFAULT_ALPHA``.  The
    cost is about |W|·m operations per grid step and path.  Raises
    ``SingularClockError`` if a path touches a wall on the grid.
    """
    system, m = plan.system, plan.n_stages
    stages = m if stages is None else int(stages)
    if not 0 <= stages <= m:
        raise InvalidArgumentError(f"stages must lie in 0..{m}")
    times, states, kept = stack_paths(run.trajectories)
    pos, group = system.positive_roots, system.weyl_group
    # root[w, b]: the position of ±w·β_b in R₊, the one α with |α·wβ_b| = 2;
    # flip[b][w]: the label of w·σ_{β_b} where that jump is active, else w
    root = np.abs(pos @ group @ pos.T).argmax(axis=1)
    stage_of = np.argsort(plan.enumeration)
    active = stage_of[root] < stages
    flip = [np.where(active[:, b], chamber_labels(system, group @ reflect(beta, pos.sum(0))),
                     np.arange(len(group))) for b, beta in enumerate(pos)]

    labels = chamber_labels(system, states[:, [0, -1]])
    p = np.zeros((len(group), len(states)))
    p[labels[:, 0], np.arange(len(states))] = 1.0
    rate = np.asarray(plan.rates)[stage_of]
    for t in range(0, len(times) - 1, 64):  # blocks of grid steps bound the temporaries
        x = states[:, t:t + 65]
        # β·Y = β·w⁻¹x = |α·x| for the α = ±w·β
        d = np.take_along_axis(np.abs(x @ pos.T), root[chamber_labels(system, x)], axis=-1)
        if np.any(d <= 0.0):
            raise SingularClockError("the radial path touches a wall on the grid")
        lam = rate * np.diff(times[t:t + 65])[:, None] / (d[:, :-1] * d[:, 1:])
        moved = -0.5 * np.expm1(-2.0 * np.ascontiguousarray(np.moveaxis(lam, 0, -1)))
        for step in moved:  # 1 − a, as (steps, m, N)
            for b, share in enumerate(step):
                p += share * (p[flip[b]] - p)

    observed = np.bincount(labels[:, -1], minlength=len(group))
    expected, var = p.sum(axis=1), np.sum(p * (1.0 - p), axis=1)
    diff = observed - expected
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / np.sqrt(var))
    worst = float(np.max(np.abs(z)))
    bound = float(sps.norm.isf(DEFAULT_ALPHA / (2 * len(group))))
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
# rotational covariance


def haar_orthogonal(n, rng):
    """Haar-distributed orthogonal matrix via sign-fixed QR."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_smooth_function(rng, n):
    w1 = rng.standard_normal(n)
    w2 = rng.standard_normal(n)
    b = rng.standard_normal()
    c = rng.standard_normal(3)

    def fn(x):
        return (c[0] * np.sin(x @ w1 + b)
                + c[1] * np.cos(x @ w2)
                + c[2] * np.exp(-0.1 * np.einsum("...i,...i->...", x, x)))

    return TestFunction(fn=fn, name="random_smooth")


def _random_offwall_point(rng, system):
    while True:
        x = 1.5 * rng.standard_normal(system.dimension)
        if np.min(np.abs(system.positive_roots @ x)) > MIN_WALL_DOT:
            return x


def rotation_covariance_generator(system, k, *, trials=50, seed=0,
                                  wrong_transport=False, name="rotate-generator"):
    """Deterministic identity L^{θR}_{k_θ} u(θx) = L^R_k (u∘θ)(x).

    The residual is compared against ``ROTATION_TOL`` times the generator's own
    term-magnitude scale.  With ``wrong_transport`` the orbit values of
    k_θ are rotated by one position (meaningful on multi-orbit systems):
    the negative control.
    """
    rng = rngmod.stream(rngmod.keys(seed, rngmod.CHECK, 2))
    spec = GeneratorSpec.full(system, k)
    worst = 0.0
    for _ in range(trials):
        theta = haar_orthogonal(system.dimension, rng)
        u = _random_smooth_function(rng, system.dimension)
        x = _random_offwall_point(rng, system)
        rotated = rotate_spec(spec, theta)
        if wrong_transport:
            vals = rotated.k.by_orbit
            wrong = Multiplicity(system=rotated.system,
                                 by_orbit=vals[1:] + vals[:1])
            rotated = GeneratorSpec(system=rotated.system, k=wrong,
                                    jump_k=None, active=rotated.active)
        u_theta = TestFunction(lambda y, u=u, th=theta: u(y @ th.T),
                               name="u∘θ")
        lhs = apply_generator(rotated, u, theta @ x)
        rhs = apply_generator(spec, u_theta, x)
        scale = generator_scale(rotated, u, theta @ x) + 1e-30
        worst = max(worst, float(abs(lhs - rhs) / scale))
    return Report(
        name=name,
        estimate=worst,
        stderr=None,
        tolerance=ROTATION_TOL,
        alpha=None,
        sample_size=trials,
        passed=worst <= ROTATION_TOL,
        details={"wrong_transport": wrong_transport},
    )


def rotation_covariance_paths(system, k, x0, config: SimulationConfig, *,
                              name="rotate-paths", threads=1):
    """Statistical check: θ·paths(k, R, x0) vs paths(k_θ, θR, θx0) at T."""
    seed = config.seed
    rng = rngmod.stream(rngmod.keys(seed, rngmod.CHECK, 3))
    theta = haar_orthogonal(system.dimension, rng)
    x0 = np.asarray(x0, dtype=float)

    plan = build_lift_plan(system, k, mode="auto")
    cfg_base = replace(config, seed=derived_seed(seed, f"{name}:base"))
    base = simulate_dunkl(plan, x0, cfg_base, threads=threads)
    rotated_states = base.final_states @ theta.T

    rot_system = rotate_system(system, theta)
    rot_k = Multiplicity(system=rot_system, by_orbit=k.by_orbit)
    rot_plan = build_lift_plan(rot_system, rot_k, mode="auto")
    cfg_rotated = replace(config, seed=derived_seed(seed, f"{name}:rotated"))
    other = simulate_dunkl(rot_plan, theta @ x0, cfg_rotated, threads=threads)

    return _coordinate_ks(rotated_states, other.final_states, name, config.n_paths)


# ---------------------------------------------------------------------------
# harmonicity spot check


def harmonicity_check(system, k, *, n_points=100, seed=0, tol=1e-5,
                      which="delta", name=None):
    """Max relative residual of a harmonicity identity at random points."""
    if name is None:
        name = f"harmonic-{which}"
    rng = rngmod.stream(rngmod.keys(seed, rngmod.CHECK, 4))
    pts = sample_interior_points(system, n_points, rng)
    res, scale = harmonicity_residual(system, k, which, pts)
    worst = float(np.max(np.abs(res) / scale))
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
    add(harmonicity_check, system, k, which="delta",
        seed=derived_seed(seed, "harmonic-delta"))
    if 0.5 in k.by_orbit:
        add(harmonicity_check, system, k, which="delta_bar",
            seed=derived_seed(seed, "harmonic-deltabar"))
    add(harmonicity_check, system, k, which="pi", tol=1e-6,
        seed=derived_seed(seed, "harmonic-pi"))
    add(harmonicity_check, system, 0.8, which="pi_power", tol=1e-6,
        seed=derived_seed(seed, "harmonic-pipow"), name="harmonic-pi_power")

    # simulations reused across checks
    radial = run_radial(system, k, x0, cfg("radial"), record=False, threads=threads)
    plan = build_lift_plan(system, k, mode="auto")
    full = simulate_dunkl(plan, x0, cfg("full"), threads=threads)

    sq = np.einsum("ij,ij->i", radial.final_states, radial.final_states)
    add(moment_besq, sq, x0, k.gamma, n, horizon, name="moment-besq-radial")
    radial_norms = np.sqrt(sq)
    add(norm_is_bessel, radial_norms, dim_besq, start, horizon, name="ks-norm-radial")
    add(norm_is_bessel, np.linalg.norm(full.final_states, axis=1), dim_besq,
        start, horizon, name="ks-norm-full")
    add(norm_is_bessel, radial_norms, dim_besq - 1.0, start, horizon,
        name="ks-norm:control", control="off-by-one dimension must be rejected")

    # projection agreement
    add(projection_agreement, full.final_states, radial.final_states, system,
        name="projection-agreement")
    radial_wrong = run_radial(system, k_plus, x0, cfg("radial-wrong"),
                              record=False, threads=threads)
    add(projection_agreement, full.final_states, radial_wrong.final_states,
        system, name="projection:control",
        control="mismatched multiplicity must be rejected")

    # the chamber label given the radial path, in both modes and at k′
    mart_paths = max(800, n_paths // 2)
    plan_kp = build_lift_plan(system, k, rates=k_prime, mode="auto")
    two_param = simulate_dunkl(plan_kp, x0, cfg("mart-kp", mart_paths), threads=threads)
    if len(system.weyl_group) > 48:  # the order of B3
        reports.append(Report(
            name="label-law", estimate=float("nan"), stderr=None, tolerance=None,
            alpha=None, sample_size=0, passed=True, skipped=True,
            details={"reason": f"|W| = {len(system.weyl_group)} > 48, the order of B3"}))
    else:
        add(label_law, full, plan, name="label-law-full")
        plan_general = build_lift_plan(system, k, mode="general")
        general = simulate_dunkl(plan_general, x0, cfg("label-general"), threads=threads)
        add(label_law, general, plan_general, name="label-law-general")
        add(label_law, two_param, plan_kp, name="label-law-two-param")
        add(label_law, full, build_lift_plan(system, k, rates=k_plus, mode="auto"),
            name="label-law:control", control="mismatched jump rates must be rejected")

    # wall-hitting profile (rank-1, fixed setup)
    wall_paths = max(800, n_paths // 4)
    add(wall_hitting_profile, wall_paths, derived_seed(seed, "wall"),
        threads=threads)
    add(wall_hitting_profile, wall_paths, derived_seed(seed, "wall-ctrl"),
        mislabel_shift=5, name="wall-profile:control", threads=threads,
        control="mislabeled simulations must break the profile")

    # rotational covariance
    add(rotation_covariance_generator, system, k, seed=derived_seed(seed, "rotgen"))
    if len(system.orbits) >= 2 and len(set(k.by_orbit)) > 1:
        add(rotation_covariance_generator, system, k,
            seed=derived_seed(seed, "rotgen-ctrl"), wrong_transport=True,
            name="rotate-generator:control",
            control="untransported multiplicity must be rejected")
    add(rotation_covariance_paths, system, k, x0,
        cfg("rotpaths", max(1000, n_paths // 2)), threads=threads)

    # martingale residual battery
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
        for tag, paths, spec in runs:
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
