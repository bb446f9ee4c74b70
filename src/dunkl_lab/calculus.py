"""Weights, drifts, harmonic functions, and generators applied numerically.

The central object is the integro-differential generator

    A u(x) = ½Δu(x) + Σ_{α∈R₊} k(α) (∇u(x)·α)/(x·α)
             + Σ_{α active} c(α) (u(σ_α x) − u(x))/(x·α)²

evaluated with a test function's own closed forms: one ``derivatives(x)``
call returns ∇u and Δu together, so the pieces they share are computed
once; the jump terms need only values of u.  With no active jump roots
this is the radial generator; with all of R₊ active and c = k it is the
full Dunkl generator; c = k′ (or any nonnegative per-orbit family) gives
the two-parameter variants.  δ, δ̄ and π^{1−2k} come with closed forms
(``_delta_times``).

Everything here is pure and vectorized: points may carry leading batch
axes with coordinates on the last axis, and test functions must accept
such arrays.  A test function may return a view of its argument (say
``lambda y: y[..., 0]``): u is read at x and at the reflected points,
each a fresh array, so no later evaluation overwrites an earlier value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, DunklLabError, InvalidArgumentError, SingularDriftError, _integral
from .root_systems import Multiplicity, RootSystem, chamber_labels, multiplicity, reflect

ORTHOGONALITY_TOL = 1e-12
INTERIOR_MARGIN = 0.3          # sampled points keep every wall product above this
INTERIOR_RADIUS = 3.0          # sampled points are drawn from N(0, radius²·I)
INTERIOR_MAX_TRIES = 100_000


@dataclass(frozen=True)
class TestFunction:
    """A smooth scalar test function with its closed-form derivatives.

    ``fn`` maps arrays of shape (..., n) to shape (...), and
    ``derivatives`` maps the same arrays to the pair (∇u of shape (..., n),
    Δu of shape (...)).  The generator uses these closed forms; they are
    not checked against ``fn``.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    derivatives: Callable[[np.ndarray], tuple]
    name: str = ""

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self):
        if not callable(self.derivatives):
            raise InvalidArgumentError("a test function needs its derivatives(x) -> (∇u, Δu)")

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class GeneratorSpec:
    """Which generator to apply: drift multiplicity, jump family, active roots.

    ``active`` lists positions into the positive enumeration whose jump
    terms are switched on; the jump coefficient of an active root is taken
    from ``jump_k`` when given, else from ``k``.
    """

    system: RootSystem
    k: Multiplicity
    jump_k: Optional[Multiplicity] = None
    active: tuple = ()

    def __post_init__(self):
        m = self.system.n_positive
        if not all(_integral(i) and 0 <= i < m for i in self.active):
            raise InvalidArgumentError(
                f"active entries must be integers in 0..{m - 1}, got {self.active!r}")
        if len(set(self.active)) != len(self.active):
            raise InvalidArgumentError("active roots repeat")

    @classmethod
    def radial(cls, system, k):
        """½Δ + drift only (the chamber-valued diffusion generator)."""
        return cls(system=system, k=k)

    @classmethod
    def full(cls, system, k, jump_k=None):
        """All jump terms active: the full càdlàg process generator."""
        return cls(system=system, k=k, jump_k=jump_k,
                   active=tuple(range(system.n_positive)))

    @classmethod
    def prefix(cls, system, k, i, enumeration=None, jump_k=None):
        """Jumps active on the first ``i`` roots of an enumeration, 0 ≤ i ≤ m."""
        m = system.n_positive
        if not _integral(i) or not 0 <= i <= m:
            raise InvalidArgumentError(f"i must be an integer in 0..{m}, got {i!r}")
        if enumeration is None:
            enumeration = tuple(range(m))
        return cls(system=system, k=k, jump_k=jump_k,
                   active=tuple(enumeration[:i]))

    def jump_coefficients(self):
        """Coefficient per active root, aligned with ``active``."""
        source = self.jump_k if self.jump_k is not None else self.k
        per_pos = source.per_positive()
        return np.array([per_pos[i] for i in self.active], dtype=float)


def _positive_dots(system, x):
    return np.asarray(x, dtype=float) @ np.ascontiguousarray(system.positive_roots.T)


def weight_omega(system, k, y):
    """ω_k(y) = Π_{α∈R₊} |α·y|^{2k(α)}; vanishes exactly on the walls."""
    dots = np.abs(_positive_dots(system, y))
    return np.prod(dots ** (2.0 * k.per_positive()), axis=-1)


def _signed_powers(dots, exponents, what):
    """Π dots^e with integer exponents allowed anywhere, real ones on dots > 0."""
    out = np.ones(dots.shape[:-1])
    for j, e in enumerate(exponents):
        d = dots[..., j]
        if float(e).is_integer():
            out = out * d ** int(e)
        else:
            if np.any(d <= 0.0):
                raise DomainError(
                    f"{what}: (α·x) ≤ 0 with non-integer exponent; x must be in C"
                )
            out = out * np.exp(e * np.log(d))
    return out


def weight_varpi(system, k, x):
    """ϖ_k(x) = Π_{α∈R₊} (α·x)^{k(α)}, positive on the chamber."""
    return _signed_powers(_positive_dots(system, x), k.per_positive(), "ϖ_k")


def delta(system, k, x):
    """δ(x) = Π_{α∈R₊} (α·x)^{1−2k(α)} on C; harmonic for the radial generator."""
    dots = _positive_dots(system, x)
    if np.any(dots <= 0.0):
        raise DomainError("δ is defined on the open chamber only")
    expo = 1.0 - 2.0 * k.per_positive()
    return np.prod(dots ** expo[(None,) * (dots.ndim - 1)], axis=-1)


def _half_orbit(k):
    """1.0 on the positive roots with k(α) = 1/2, else 0.0; raises if there are none."""
    half = (k.per_positive() == 0.5).astype(float)
    if not half.any():
        raise InvalidArgumentError("δ̄ needs at least one orbit with k = 1/2")
    return half


def delta_bar(system, k, x):
    """Mixed harmonic function for multiplicities with a k = 1/2 orbit.

    δ̄(x) = Π_{k(α)≠1/2} (α·x)^{1−2k(α)} · log Π_{k(α)=1/2} (α·x) = δ(x) · Σ_{k(α)=1/2} log(α·x).
    """
    half = _half_orbit(k)
    return delta(system, k, x) * (np.log(_positive_dots(system, x)) @ half)


def drift(system, k, x):
    """∇ log ϖ_k(x) = Σ_{α∈R₊} k(α) α/(x·α); the radial drift field."""
    dots = _positive_dots(system, x)
    if np.any(dots == 0.0):
        raise SingularDriftError("drift evaluated on a reflecting hyperplane")
    return (k.per_positive() / dots) @ system.positive_roots


def _coordinate_sum(a):
    """``a.sum(axis=-1)`` column-wise, as numpy adds ≤ 7 terms: in order from +0.0."""
    if a.shape[-1] > 7:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0
    for i in range(1, a.shape[-1]):
        out += a[..., i]
    return out


def generator_terms(spec, u, x):
    """The generator split into its named pieces, each shaped like (...).

    Returns a dict with "half_laplacian", "drift", "jumps" (signed sum)
    and "jump_abs" (sum of |term|).
    """
    if not isinstance(u, TestFunction):
        raise InvalidArgumentError(
            f"u must be a TestFunction with closed-form derivatives, got {type(u).__name__}")
    x = np.asarray(x, dtype=float)
    system, k = spec.system, spec.k
    dots = _positive_dots(system, x)
    if np.any(dots == 0.0):
        raise SingularDriftError("generator evaluated on a reflecting hyperplane")
    grad, lap = u.derivatives(x)
    half_lap = 0.5 * lap
    # k at full width: an (m,) row divided into (..., m) runs one inner loop per point
    k_rows = np.tile(k.per_positive(), dots.shape[:-1] + (1,))
    drift_vec = (k_rows / dots) @ system.positive_roots
    drift_term = _coordinate_sum(drift_vec * grad)
    jumps = np.zeros(x.shape[:-1])
    jump_abs = np.zeros(x.shape[:-1])
    if spec.active:
        u0 = u(x)
        coeffs = spec.jump_coefficients()
        for c, pos_index in zip(coeffs, spec.active):
            alpha = system.positive_roots[pos_index]
            term = c * (u(reflect(alpha, x)) - u0) / dots[..., pos_index] ** 2
            jumps = jumps + term
            jump_abs = jump_abs + np.abs(term)
    return {
        "half_laplacian": half_lap,
        "drift": drift_term,
        "jumps": jumps,
        "jump_abs": jump_abs,
    }


def apply_generator(spec, u, x):
    """Evaluate the generator described by ``spec`` on ``u`` at ``x``."""
    t = generator_terms(spec, u, x)
    return t["half_laplacian"] + t["drift"] + t["jumps"]


def generator_scale(spec, u, x):
    """Σ of absolute term magnitudes, the reference for relative residuals."""
    t = generator_terms(spec, u, x)
    return np.abs(t["half_laplacian"]) + np.abs(t["drift"]) + t["jump_abs"]


def _delta_times(system, k, log_half):
    """u = δ_k·q with closed-form ∇ and Δ; q ≡ 1 is δ, q = Σ_{k(α)=½} log(α·x) is δ̄.

    With e = 1 − 2k, g = Σ e_α α/(α·x), h = Σ_{k(α)=½} α/(α·x) and α·α = 2:
    ∇u = δ_k·(q·g + h), Δu = δ_k·(q·(‖g‖² − 2Σ e_α/(α·x)²) + 2g·h − 2Σ_{k(α)=½} 1/(α·x)²).
    """
    pos, expo = system.positive_roots, 1.0 - 2.0 * k.per_positive()
    values, half = (delta_bar, _half_orbit(k)) if log_half else (delta, np.zeros_like(expo))

    def terms(x):
        d, dots = delta(system, k, x), _positive_dots(system, x)
        inv = 1.0 / dots
        q = np.log(dots) @ half if log_half else np.ones(d.shape)
        return d, q, (expo * inv) @ pos, (half * inv) @ pos, inv * inv

    def derivatives(x):
        d, q, g, h, inv_sq = terms(x)
        lap = d * (q * (_coordinate_sum(g * g) - 2.0 * (inv_sq @ expo))
                   + 2.0 * _coordinate_sum(g * h) - 2.0 * (inv_sq @ half))
        return d[..., None] * (q[..., None] * g + h), lap

    return TestFunction(fn=lambda y: values(system, k, y), name=values.__name__,
                        derivatives=derivatives)


def harmonicity_residual(system, k, which, x):
    """Residual and cancellation scale of a harmonicity identity at ``x``.

    which = "delta":     L_k^W δ        (should vanish on C)
    which = "delta_bar": L_k^W δ̄        (needs a k = 1/2 orbit)
    which = "pi":        Δπ for π = Π(α·x) (k ignored)
    which = "pi_power":  Δπ^{1−2k} + 2(∇π^{1−2k}·∇ log π^k) = 2·L_k^W δ, one k on every orbit

    All four are closed forms (``_delta_times`` for δ, δ̄ and π^{1−2k} = δ).
    The scale is the sum of the absolute magnitudes of the cancelling
    terms, so residual/scale is the meaningful relative error.
    """
    x = np.asarray(x, dtype=float)
    if which == "pi":
        # Δπ = π·(‖Σα/(α·x)‖² − Σ2/(α·x)²), α·α = 2: differences of a linear π
        # (rank one) would leave rounding over a zero scale
        dots = _positive_dots(system, x)
        sq = _coordinate_sum(((1.0 / dots) @ system.positive_roots) ** 2)
        pairs, pi = 2.0 * _coordinate_sum(dots ** -2.0), np.prod(dots, axis=-1)
        return pi * (sq - pairs), np.abs(pi) * (sq + pairs)
    if which == "pi_power":
        if not np.isscalar(k) and len(set(k.by_orbit)) > 1:
            raise InvalidArgumentError("pi_power needs one value of k on every orbit")
        k = multiplicity(system, float(k) if np.isscalar(k) else k.by_orbit[0])
        res, scale = harmonicity_residual(system, k, "delta", x)
        return 2.0 * res, 2.0 * scale
    if which not in ("delta", "delta_bar"):
        raise InvalidArgumentError(f"unknown identity {which!r}")
    t = generator_terms(GeneratorSpec.radial(system, k),
                        _delta_times(system, k, which == "delta_bar"), x)
    return t["half_laplacian"] + t["drift"], np.abs(t["half_laplacian"]) + np.abs(t["drift"])


def rotate_system(system, theta):
    """The root system θR with every stored object transported by θ."""
    theta = np.asarray(theta, dtype=float)
    n = system.dimension
    if theta.shape != (n, n):
        raise InvalidArgumentError(f"θ must be {n}×{n}, got shape {theta.shape}")
    if np.max(np.abs(theta.T @ theta - np.eye(n))) > ORTHOGONALITY_TOL:
        raise InvalidArgumentError("θ must be orthogonal")
    return RootSystem(
        dimension=system.dimension,
        roots=system.roots @ theta.T,
        positive=system.positive.copy(),
        weyl_group=np.einsum("ij,gjk,lk->gil", theta, system.weyl_group, theta),
        orbits=system.orbits,
    )


def sample_interior_points(system, count, rng):
    """Deterministic sample of chamber points with wall margin.

    Draws from N(0, ``INTERIOR_RADIUS``²·I) in batches of ``count``, folded
    into the chamber by their labels w (y = w⁻¹x; the law is W-invariant),
    kept in order where every wall product exceeds ``INTERIOR_MARGIN``.
    Raises ``DunklLabError`` after ``INTERIOR_MAX_TRIES`` draws.
    """
    pos_t = np.ascontiguousarray(system.positive_roots.T)
    out, drawn = np.zeros((0, system.dimension)), 0
    while len(out) < count:
        if drawn >= INTERIOR_MAX_TRIES:
            raise DunklLabError(f"interior sampling kept {len(out)} of {count} points "
                                f"in {drawn} draws")
        x = INTERIOR_RADIUS * rng.standard_normal((count, system.dimension))
        drawn += count
        y = np.einsum("pi,pij->pj", x, system.weyl_group[chamber_labels(system, x)])  # wᵀx
        out = np.concatenate([out, y[np.all(y @ pos_t > INTERIOR_MARGIN, axis=1)]])
    return out[:count]
