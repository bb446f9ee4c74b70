"""Weights, drifts, harmonic functions, and generators applied numerically.

The central object is the integro-differential generator

    A u(x) = ½Δu(x) + Σ_{α∈R₊} k(α) (∇u(x)·α)/(x·α)
             + Σ_{α active} c(α) (u(σ_α x) − u(x))/(x·α)²

evaluated with a test function's own closed-form gradient and Laplacian
when it supplies them, and through Richardson-extrapolated central
differences otherwise; the jump terms need only values of u.  With no
active jump roots this is the radial generator; with all of R₊ active and
c = k it is the full Dunkl generator; c = k′ (or any nonnegative
per-orbit family) gives the two-parameter variants.

Everything here is pure and vectorized: points may carry leading batch
axes with coordinates on the last axis, and test functions must accept
such arrays.  A test function may return a view of its argument (say
``lambda y: y[..., 0]``): every finite-difference stencil point is a fresh
array, so no later evaluation overwrites an earlier value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidArgumentError, SingularDriftError
from .root_systems import Multiplicity, RootSystem, reflect

FD_BASE_STEP = 1e-3            # h = FD_BASE_STEP · (1 + ‖x‖)
ORTHOGONALITY_TOL = 1e-12
INTERIOR_MARGIN = 0.3          # sampled points keep every wall product above this
INTERIOR_RADIUS = 3.0          # sampled points are drawn from N(0, radius²·I)
INTERIOR_MAX_TRIES = 100_000


@dataclass(frozen=True)
class TestFunction:
    """A smooth scalar test function with a declared trust region.

    ``fn`` maps arrays of shape (..., n) to shape (...).  When both
    ``grad`` (to shape (..., n)) and ``laplacian`` (to shape (...)) are
    given, the generator uses these closed forms; otherwise it takes
    Richardson differences of ``fn``.  Those are trusted on the centered
    ball of radius ``smooth_radius``; evaluations whose stencil leaves it
    raise ``DomainError``.  The closed forms are not checked against it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    smooth_radius: float = np.inf
    name: str = ""
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    laplacian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    __test__ = False  # not a pytest class despite the name

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


def as_test_function(u):
    return u if isinstance(u, TestFunction) else TestFunction(fn=u)


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
        if not all(0 <= int(i) < m for i in self.active):
            raise InvalidArgumentError("active entries must index positive roots")
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
        """Jumps active on the first ``i`` roots of an enumeration."""
        if enumeration is None:
            enumeration = tuple(range(system.n_positive))
        return cls(system=system, k=k, jump_k=jump_k,
                   active=tuple(enumeration[:i]))

    def jump_coefficients(self):
        """Coefficient per active root, aligned with ``active``."""
        source = self.jump_k if self.jump_k is not None else self.k
        per_pos = source.per_positive()
        return np.array([per_pos[i] for i in self.active], dtype=float)


def _positive_dots(system, x):
    return np.asarray(x, dtype=float) @ system.positive_roots.T


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


def delta_bar(system, k, x):
    """Mixed harmonic function for multiplicities with a k = 1/2 orbit.

    δ̄(x) = Π_{k(α)≠1/2} (α·x)^{1−2k(α)} · log Π_{k(α)=1/2} (α·x).
    """
    per_pos = k.per_positive()
    half = per_pos == 0.5
    if not half.any():
        raise InvalidArgumentError("δ̄ needs at least one orbit with k = 1/2")
    dots = _positive_dots(system, x)
    if np.any(dots <= 0.0):
        raise DomainError("δ̄ is defined on the open chamber only")
    expo = 1.0 - 2.0 * per_pos
    power_part = np.prod(
        dots[..., ~half] ** expo[~half][(None,) * (dots.ndim - 1)], axis=-1
    )
    log_part = np.sum(np.log(dots[..., half]), axis=-1)
    return power_part * log_part


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


def _fd_scheme(u, x):
    """Richardson-extrapolated central differences.

    Returns (gradient, per-axis second derivatives) at base step
    h = FD_BASE_STEP·(1 + ‖x‖), combining the h and h/2 stencils to fourth
    order.  ``x``: (..., n).
    """
    u = as_test_function(u)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    norm = np.sqrt(_coordinate_sum(x * x))  # np.linalg.norm(x, axis=-1)
    h = FD_BASE_STEP * (1.0 + norm)
    if np.any(norm + h > u.smooth_radius):
        raise DomainError("finite-difference stencil exits the smoothness region")

    def u_at(i, op, step):
        # u(x ± step·e_i) on a fresh array (u may return a view of it);
        # op(x, 0.0) rounds x_j as the vector sum x ± step·e does, −0.0 too
        xs = op(x, 0.0)
        op(x[..., i], step, out=xs[..., i])
        return u(xs)

    u0_2 = 2.0 * u(x)
    half, h_2, h_sq, half_sq = 0.5 * h, 2.0 * h, h**2, (0.5 * h) ** 2
    grad = np.empty(x.shape)
    second = np.empty(x.shape)
    for i in range(n):
        up1, um1 = u_at(i, np.add, h), u_at(i, np.subtract, h)
        up2, um2 = u_at(i, np.add, half), u_at(i, np.subtract, half)
        g1 = (up1 - um1) / h_2
        g2 = (up2 - um2) / h
        grad[..., i] = (4.0 * g2 - g1) / 3.0
        s1 = (up1 - u0_2 + um1) / h_sq
        s2 = (up2 - u0_2 + um2) / half_sq
        second[..., i] = (4.0 * s2 - s1) / 3.0
    return grad, second


def fd_gradient(u, x):
    return _fd_scheme(u, x)[0]


def fd_laplacian(u, x):
    return _coordinate_sum(_fd_scheme(u, x)[1])


def generator_terms(spec, u, x):
    """The generator split into its named pieces, each shaped like (...).

    Returns a dict with "half_laplacian", "drift", "jumps" (signed sum)
    and "jump_abs" (sum of |term|).
    """
    u = as_test_function(u)
    x = np.asarray(x, dtype=float)
    system, k = spec.system, spec.k
    dots = _positive_dots(system, x)
    if np.any(dots == 0.0):
        raise SingularDriftError("generator evaluated on a reflecting hyperplane")
    if u.grad is not None and u.laplacian is not None:
        grad, lap = u.grad(x), u.laplacian(x)
    else:
        grad, second = _fd_scheme(u, x)
        lap = _coordinate_sum(second)
    half_lap = 0.5 * lap
    drift_vec = (k.per_positive() / dots) @ system.positive_roots
    drift_term = np.einsum("...i,...i->...", drift_vec, grad)
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


def _pi_product(system):
    pos = system.positive_roots

    def fn(x):
        return np.prod(np.asarray(x, dtype=float) @ pos.T, axis=-1)

    return TestFunction(fn=fn, name="pi")


def harmonicity_residual(system, k, which, x):
    """Residual and cancellation scale of a harmonicity identity at ``x``.

    which = "delta":     L_k^W δ        (should vanish on C)
    which = "delta_bar": L_k^W δ̄        (needs a k = 1/2 orbit)
    which = "pi":        Δπ for π = Π(α·x)   (k ignored)
    which = "pi_power":  Δπ^{1−2k} + 2(∇π^{1−2k}·∇ log π^k), one k on every orbit

    The scale is the sum of the absolute magnitudes of the cancelling
    terms, so residual/scale is the meaningful relative error.
    """
    x = np.asarray(x, dtype=float)
    if which == "delta":
        fn = TestFunction(lambda y: delta(system, k, y), name="delta")
        t = generator_terms(GeneratorSpec.radial(system, k), fn, x)
        return t["half_laplacian"] + t["drift"], (
            np.abs(t["half_laplacian"]) + np.abs(t["drift"])
        )
    if which == "delta_bar":
        fn = TestFunction(lambda y: delta_bar(system, k, y), name="delta_bar")
        t = generator_terms(GeneratorSpec.radial(system, k), fn, x)
        return t["half_laplacian"] + t["drift"], (
            np.abs(t["half_laplacian"]) + np.abs(t["drift"])
        )
    if which == "pi":
        _, second = _fd_scheme(_pi_product(system), x)
        return _coordinate_sum(second), _coordinate_sum(np.abs(second))
    if which == "pi_power":
        if not np.isscalar(k) and len(set(k.by_orbit)) > 1:
            raise InvalidArgumentError("pi_power needs one value of k on every orbit")
        kk = float(k) if np.isscalar(k) else k.by_orbit[0]
        pi = _pi_product(system)

        def f(y):
            return pi(y) ** (1.0 - 2.0 * kk)

        def g(y):
            return kk * np.log(pi(y))

        grad_f, second_f = _fd_scheme(TestFunction(f), x)
        grad_g = fd_gradient(TestFunction(g), x)
        lap_f = _coordinate_sum(second_f)
        cross = 2.0 * np.einsum("...i,...i->...", grad_f, grad_g)
        return lap_f + cross, np.abs(lap_f) + np.abs(cross)
    raise InvalidArgumentError(f"unknown identity {which!r}")


def rotate_system(system, theta):
    """The root system θR with every stored object transported by θ."""
    theta = np.asarray(theta, dtype=float)
    if np.max(np.abs(theta.T @ theta - np.eye(theta.shape[0]))) > ORTHOGONALITY_TOL:
        raise InvalidArgumentError("θ must be orthogonal")
    return RootSystem(
        dimension=system.dimension,
        roots=system.roots @ theta.T,
        positive=system.positive.copy(),
        weyl_group=np.einsum("ij,gjk,lk->gil", theta, system.weyl_group, theta),
        orbits=system.orbits,
    )


def rotate_spec(spec, theta):
    """Transport a generator spec by θ: roots θα with k_θ(θα) = k(α).

    The defining identity is L^{θR}_{k_θ} u(θx) = L^R_k (u∘θ)(x).
    """
    rotated = rotate_system(spec.system, theta)
    k_rot = Multiplicity(system=rotated, by_orbit=spec.k.by_orbit)
    jump_rot = (
        None
        if spec.jump_k is None
        else Multiplicity(system=rotated, by_orbit=spec.jump_k.by_orbit)
    )
    return GeneratorSpec(system=rotated, k=k_rot, jump_k=jump_rot, active=spec.active)


def sample_interior_points(system, count, rng):
    """Deterministic rejection sample of chamber points with wall margin.

    Points are drawn from N(0, ``INTERIOR_RADIUS``²·I) and kept when every
    wall product exceeds ``INTERIOR_MARGIN``; useful for harmonicity spot
    checks.
    """
    pos_t = system.positive_roots.T
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > INTERIOR_MAX_TRIES:
            raise RuntimeError("interior sampling did not converge")
        x = INTERIOR_RADIUS * rng.standard_normal(system.dimension)
        if np.all(x @ pos_t > INTERIOR_MARGIN):
            out.append(x)
    return np.array(out)
