"""Test-only references: Richardson differences and the transport of a
generator spec by an orthogonal θ.

The package evaluates generators only on closed-form derivatives; the
differences here are the independent reference those closed forms are
checked against, and they give a plain callable the ``derivatives`` a
``TestFunction`` needs.
"""

import numpy as np

from dunkl_lab.calculus import GeneratorSpec, TestFunction, _coordinate_sum, rotate_system
from dunkl_lab.root_systems import Multiplicity


def _fd_scheme(u, x):
    """Richardson-extrapolated central differences.

    Returns (gradient, per-axis second derivatives) at base step
    h = 10⁻³·(1 + ‖x‖), combining the h and h/2 stencils to fourth
    order.  ``x``: (..., n).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    norm = np.sqrt(_coordinate_sum(x * x))  # np.linalg.norm(x, axis=-1)
    h = 1e-3 * (1.0 + norm)

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


def with_differences(fn, name=""):
    """``fn`` as a ``TestFunction`` whose ∇u and Δu are Richardson differences."""
    def derivatives(x):
        grad, second = _fd_scheme(fn, x)
        return grad, _coordinate_sum(second)

    return TestFunction(fn, derivatives, name=name)


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
