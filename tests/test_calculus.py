import numpy as np
import pytest

import types

from dunkl_lab import (
    DomainError,
    DunklLabError,
    GeneratorSpec,
    InvalidArgumentError,
    SingularDriftError,
    TestFunction,
    apply_generator,
    delta,
    delta_bar,
    drift,
    harmonicity_residual,
    multiplicity,
    weight_omega,
    weight_varpi,
)
from dunkl_lab import calculus
from dunkl_lab.calculus import (
    _coordinate_sum,
    generator_scale,
    generator_terms,
    rotate_system,
    sample_interior_points,
)
from dunkl_lab.root_systems import Multiplicity, build_rank_one, build_type_a, build_type_b
from dunkl_lab.verify import _ridge_function, function_battery, haar_orthogonal, harmonicity_check
from helpers import _fd_scheme, fd_gradient, fd_laplacian, rotate_spec, with_differences


@pytest.fixture()
def x21():
    return np.array([2.0, 1.0])


class TestWeights:
    def test_omega_value(self, b2, k_one, x21):
        # factors |α·x|: 1, 3, 2√2, √2 -> squared product 144
        assert weight_omega(b2, k_one, x21) == pytest.approx(144.0)

    def test_omega_vanishes_on_wall(self, b2, k_one):
        assert weight_omega(b2, k_one, np.array([1.0, 1.0])) == 0.0

    def test_omega_is_varpi_squared_on_chamber(self, b2, x21):
        k = multiplicity(b2, [0.7, 1.3])
        om = weight_omega(b2, k, x21)
        vp = weight_varpi(b2, k, x21)
        assert om == pytest.approx(vp**2, rel=1e-12)

    def test_varpi_value(self, b2, k_one, x21):
        assert weight_varpi(b2, k_one, x21) == pytest.approx(12.0)

    def test_varpi_unit_for_zero_multiplicity(self, b2, x21):
        k0 = multiplicity(b2, 0.0)
        assert weight_varpi(b2, k0, x21) == pytest.approx(1.0)

    def test_varpi_rank_one(self):
        r1 = build_rank_one()
        k = multiplicity(r1, 0.6)
        x = np.array([1.5])
        assert weight_varpi(r1, k, x) == pytest.approx((np.sqrt(2) * 1.5) ** 0.6)

    def test_varpi_domain_error_for_fractional_power(self, b2):
        k = multiplicity(b2, 0.5)
        with pytest.raises(DomainError):
            weight_varpi(b2, k, np.array([1.0, 2.0]))

    def test_varpi_integer_power_allows_any_sign(self, b2, k_one):
        val = weight_varpi(b2, k_one, np.array([1.0, 2.0]))
        assert np.isfinite(val)


class TestDrift:
    def test_rank_one_value(self):
        r1 = build_rank_one()
        k = multiplicity(r1, 1.0)
        assert drift(r1, k, np.array([0.5]))[0] == pytest.approx(2.0)

    def test_b2_value(self, b2, k_one, x21):
        assert np.allclose(drift(b2, k_one, x21), [11.0 / 6.0, 1.0 / 3.0])

    def test_scaling_homogeneity(self, b2, x21):
        k = multiplicity(b2, [0.8, 1.7])
        d1 = drift(b2, k, x21)
        d3 = drift(b2, k, 3.0 * x21)
        assert np.allclose(d3, d1 / 3.0, rtol=1e-12)

    def test_matches_fd_gradient_of_log_varpi(self, b2, b3, a2, rng):
        for system in (a2, b2, b3):
            kvals = rng.uniform(0.5, 3.0, size=len(system.orbits))
            k = multiplicity(system, list(kvals))
            pts = sample_interior_points(system, 20, rng)
            grad = fd_gradient(lambda y: np.log(weight_varpi(system, k, y)), pts)
            exact = drift(system, k, pts)
            rel = np.max(np.abs(grad - exact)) / np.max(np.abs(exact))
            assert rel <= 1e-6

    def test_wall_contact_raises(self, b2, k_one):
        with pytest.raises(SingularDriftError):
            drift(b2, k_one, np.array([1.0, 1.0]))


class TestDeltaFunctions:
    def test_delta_value(self, b2, k_one, x21):
        assert delta(b2, k_one, x21) == pytest.approx(1.0 / 12.0)

    def test_delta_is_one_at_half_multiplicity(self, b2, x21):
        k = multiplicity(b2, 0.5)
        assert delta(b2, k, x21) == pytest.approx(1.0)

    def test_delta_rejects_exterior(self, b2, k_one):
        with pytest.raises(DomainError):
            delta(b2, k_one, np.array([1.0, 2.0]))

    def test_delta_bar_formula(self, b2, x21):
        k = multiplicity(b2, {0: 1.0, 1: 0.5})  # long 1, short 1/2
        a1, a2_, a3, a4 = b2.positive_roots
        expected = ((a1 @ x21) * (a2_ @ x21)) ** -1.0 * np.log(
            (a3 @ x21) * (a4 @ x21))
        assert delta_bar(b2, k, x21) == pytest.approx(expected, rel=1e-12)

    def test_delta_bar_needs_half_orbit(self, b2, k_one, x21):
        with pytest.raises(InvalidArgumentError):
            delta_bar(b2, k_one, x21)


class TestFiniteDifferences:
    """The test-side reference that the closed forms are checked against."""

    def test_gradient_on_polynomial(self, rng):
        pts = rng.standard_normal((30, 3))
        grad = fd_gradient(lambda x: x[..., 0] ** 3 + 2 * x[..., 1] * x[..., 2], pts)
        exact = np.stack([3 * pts[:, 0] ** 2, 2 * pts[:, 2], 2 * pts[:, 1]], axis=1)
        assert np.max(np.abs(grad - exact)) <= 1e-8 * (1 + np.max(np.abs(exact)))

    def test_laplacian_on_gaussian(self, rng):
        pts = 0.5 * rng.standard_normal((30, 2))
        lap = fd_laplacian(lambda x: np.exp(-np.einsum("...i,...i->...", x, x)), pts)
        sq = np.einsum("ij,ij->i", pts, pts)
        exact = np.exp(-sq) * (4 * sq - 4)
        assert np.max(np.abs(lap - exact)) <= 1e-7


class TestGenerator:
    def test_constant_function_is_killed(self, b2, k_one, x21):
        fn = with_differences(lambda x: np.full(x.shape[:-1], 3.5))
        for spec in (GeneratorSpec.radial(b2, k_one), GeneratorSpec.full(b2, k_one)):
            assert apply_generator(spec, fn, x21) == pytest.approx(0.0, abs=1e-9)

    def test_squared_norm_radial(self, b2, k_one, x21):
        # ½Δ|x|² = n and drift·∇|x|² = 2γ
        fn = with_differences(lambda x: np.einsum("...i,...i->...", x, x))
        spec = GeneratorSpec.radial(b2, k_one)
        val = apply_generator(spec, fn, x21)
        assert val == pytest.approx(2 + 2 * 4.0, rel=1e-8)

    def test_squared_norm_full_equals_radial(self, b2, k_one, x21):
        # |x|² is W-invariant so jump terms vanish identically
        fn = with_differences(lambda x: np.einsum("...i,...i->...", x, x))
        full = apply_generator(GeneratorSpec.full(b2, k_one), fn, x21)
        rad = apply_generator(GeneratorSpec.radial(b2, k_one), fn, x21)
        assert full == pytest.approx(rad, rel=1e-12)

    def test_invariant_function_drops_jumps(self, b2, rng):
        k = multiplicity(b2, [1.0, 2.0])
        pts = sample_interior_points(b2, 10, rng)
        fn = with_differences(
            lambda x: np.exp(-0.3 * np.einsum("...i,...i->...", x, x)))
        full = apply_generator(GeneratorSpec.full(b2, k), fn, pts)
        rad = apply_generator(GeneratorSpec.radial(b2, k), fn, pts)
        assert np.max(np.abs(full - rad)) <= 1e-10 * np.max(generator_scale(
            GeneratorSpec.full(b2, k), fn, pts))

    def test_linearity(self, b2, k_one, rng):
        pts = sample_interior_points(b2, 5, rng)
        u = with_differences(lambda x: np.sin(x[..., 0]) + x[..., 1] ** 2)
        v = with_differences(lambda x: np.exp(-np.einsum("...i,...i->...", x, x) / 8))
        a, b = 2.3, -0.7
        combo = with_differences(lambda x: a * u(x) + b * v(x))
        spec = GeneratorSpec.full(b2, k_one)
        lhs = apply_generator(spec, combo, pts)
        rhs = a * apply_generator(spec, u, pts) + b * apply_generator(spec, v, pts)
        scale = generator_scale(spec, combo, pts)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(scale)

    def test_prefix_spec_active_set(self, b2, k_one):
        spec = GeneratorSpec.prefix(b2, k_one, 2)
        assert spec.active == (0, 1)
        assert np.allclose(spec.jump_coefficients(), [1.0, 1.0])
        assert GeneratorSpec.prefix(b2, k_one, np.int64(4)).active == (0, 1, 2, 3)
        assert GeneratorSpec.prefix(b2, k_one, 0).active == ()

    @pytest.mark.parametrize("i", [-1, 5, True, 2.5, None])
    def test_prefix_must_count_roots(self, b2, k_one, i):
        # −1 dropped the last root, 5 activated all four, True acted as 1
        with pytest.raises(InvalidArgumentError, match="0..4"):
            GeneratorSpec.prefix(b2, k_one, i)

    @pytest.mark.parametrize("active", [(1.5,), ("1",), (True,)], ids=["float", "str", "bool"])
    def test_active_entries_must_be_integers(self, b2, k_one, active):
        # 1.5 and "1" failed later with a bare IndexError; True acted as root 1
        with pytest.raises(InvalidArgumentError, match="integers in 0..3"):
            GeneratorSpec(system=b2, k=k_one, active=active)
        assert GeneratorSpec(system=b2, k=k_one, active=(np.int64(3),)).active == (3,)

    def test_a_bare_callable_is_refused(self, b2, k_one, x21):
        # the generator takes only closed-form derivatives
        with pytest.raises(InvalidArgumentError, match="TestFunction"):
            apply_generator(GeneratorSpec.radial(b2, k_one), lambda x: x[..., 0], x21)
        with pytest.raises(InvalidArgumentError, match="derivatives"):
            TestFunction(lambda x: x[..., 0], None)

    def test_two_parameter_jump_coefficients(self, b2, k_one):
        kp = multiplicity(b2, [0.25, 2.0])
        spec = GeneratorSpec.full(b2, k_one, jump_k=kp)
        assert np.allclose(spec.jump_coefficients(), [0.25, 0.25, 2.0, 2.0])

    def test_wall_contact_raises(self, b2, k_one):
        fn = with_differences(lambda x: x[..., 0])
        with pytest.raises(SingularDriftError):
            apply_generator(GeneratorSpec.radial(b2, k_one),
                            fn, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("rank", [2, 4])
    def test_drift_term_is_the_dot_product(self, rank, rng):
        # drift·∇u as a column sum: the einsum's bits in rank ≤ 2, its value
        # to rounding in rank 4
        system = build_type_b(rank)
        k = multiplicity(system, [0.5, 1.5])
        spec = GeneratorSpec.full(system, k)
        pts = sample_interior_points(system, 200, rng)
        for u in function_battery(rank):
            drift_vec = (k.per_positive() / (pts @ system.positive_roots.T)
                         ) @ system.positive_roots
            ref = np.einsum("...i,...i->...", drift_vec, u.derivatives(pts)[0])
            got = generator_terms(spec, u, pts)["drift"]
            if rank == 2:
                assert got.tobytes() == ref.tobytes(), u.name
            else:
                scale = generator_scale(spec, u, pts)
                assert np.all(np.abs(got - ref) <= 1e-14 * scale), u.name

    @pytest.mark.parametrize("full", [False, True], ids=["radial", "full"])
    def test_function_may_return_a_view(self, b2, k_one, rng, full):
        # a stencil buffer shared by the evaluations would rewrite the values
        # a view-returning u gave for the earlier stencil points
        pts = sample_interior_points(b2, 12, rng).reshape(3, 4, 2)
        spec = (GeneratorSpec.full if full else GeneratorSpec.radial)(b2, k_one)
        view = apply_generator(spec, with_differences(lambda y: y[..., 0]), pts)
        copy = apply_generator(spec, with_differences(lambda y: y[..., 0].copy()), pts)
        assert view.tobytes() == copy.tobytes()


# k values of the closed-form checks; pairs are (k on orbit 0, k on orbit 1)
_DELTA_KS = (1.0, 0.5, 0.8, 0.3, (0.5, 1.0), (2.0, 0.5), (1.0, 0.5))
_SYSTEMS = {"rank1": build_rank_one, "b2": lambda: build_type_b(2),
            "a2": lambda: build_type_a(3), "b3": lambda: build_type_b(3),
            "b4": lambda: build_type_b(4), "a6": lambda: build_type_a(7)}


def _delta_ks(system):
    """Every k of ``_DELTA_KS`` that fits the system's orbits."""
    return [multiplicity(system, kv if np.isscalar(kv) else list(kv))
            for kv in _DELTA_KS if np.isscalar(kv) or len(kv) == len(system.orbits)]


def _worst(res, scale):
    return np.max(np.abs(res) / np.where(res == 0.0, 1.0, scale))


class TestHarmonicity:
    def test_delta_harmonic(self, a2, b2, rng):
        cases = [(a2, multiplicity(a2, 0.8)), (a2, multiplicity(a2, 1.5)),
                 (b2, multiplicity(b2, [0.75, 1.25]))]
        for system, k in cases:
            pts = sample_interior_points(system, 100, rng)
            res, scale = harmonicity_residual(system, k, "delta", pts)
            assert np.max(np.abs(res) / scale) <= 1e-12

    def test_delta_bar_harmonic(self, b2, rng):
        k = multiplicity(b2, {0: 1.0, 1: 0.5})
        pts = sample_interior_points(b2, 100, rng)
        res, scale = harmonicity_residual(b2, k, "delta_bar", pts)
        assert np.max(np.abs(res) / scale) <= 1e-12

    @pytest.mark.parametrize("log_half", [False, True], ids=["delta", "delta_bar"])
    def test_closed_forms_match_differences(self, rng, log_half):
        # ∇u and Δu of δ_k·q against Richardson differences of its values
        for name in ("rank1", "b2", "a2", "b3"):
            system = _SYSTEMS[name]()
            pts = sample_interior_points(system, 50, rng)
            for k in _delta_ks(system):
                if log_half and 0.5 not in k.by_orbit:
                    continue
                u = calculus._delta_times(system, k, log_half)
                grad, lap = u.derivatives(pts)
                fd_grad, fd_lap = fd_gradient(u.fn, pts), fd_laplacian(u.fn, pts)
                grad_err = np.linalg.norm(grad - fd_grad, axis=-1)
                assert np.all(grad_err <= 1e-5 * np.linalg.norm(fd_grad, axis=-1)), name
                assert np.all(np.abs(lap - fd_lap) <= 1e-5 * np.abs(fd_lap)), name

    def test_closed_forms_on_vectors_that_are_no_root_system(self, rng):
        # across orbits of a root system g·h vanishes; on generic vectors it
        # does not, and the product rule must still match differences
        vecs = rng.standard_normal((4, 3))
        vecs *= np.sqrt(2.0) / np.linalg.norm(vecs, axis=1, keepdims=True)
        vecs *= np.sign(vecs @ np.ones(3))[:, None]
        fake = types.SimpleNamespace(positive_roots=vecs)
        k = types.SimpleNamespace(per_positive=lambda: np.array([0.5, 0.5, 1.3, 0.2]))
        pts = 3.0 + rng.random((20, 3))
        u = calculus._delta_times(fake, k, True)
        fd_grad, fd_lap = fd_gradient(u.fn, pts), fd_laplacian(u.fn, pts)
        grad, lap = u.derivatives(pts)
        grad_err = np.linalg.norm(grad - fd_grad, axis=-1)
        assert np.all(grad_err <= 1e-5 * np.linalg.norm(fd_grad, axis=-1))
        assert np.all(np.abs(lap - fd_lap) <= 1e-5 * np.abs(fd_lap))

    @pytest.mark.parametrize("name", list(_SYSTEMS))
    def test_identities_hold_to_rounding(self, rng, name):
        system = _SYSTEMS[name]()
        pts = sample_interior_points(system, 50, rng)
        for k in _delta_ks(system):
            whichs = ["delta"] + ["delta_bar"] * (0.5 in k.by_orbit)
            whichs += ["pi_power"] * (len(set(k.by_orbit)) == 1)
            for which in whichs:
                res, scale = harmonicity_residual(system, k, which, pts)
                assert _worst(res, scale) <= 1e-12, (which, k.by_orbit)

    def test_control_drift_of_k_plus_half(self, b2, rng):
        # δ_k is not harmonic under the drift of k + ½: each point reads ≥ 0.1
        pts = sample_interior_points(b2, 100, rng)
        for k in _delta_ks(b2):
            if set(k.by_orbit) == {0.5}:
                continue  # δ ≡ 1 is harmonic under any drift
            k_plus = multiplicity(b2, [v + 0.5 for v in k.by_orbit])
            t = generator_terms(GeneratorSpec.radial(b2, k_plus),
                                calculus._delta_times(b2, k, False), pts)
            res = t["half_laplacian"] + t["drift"]
            scale = np.abs(t["half_laplacian"]) + np.abs(t["drift"])
            assert np.min(np.abs(res) / scale) >= 0.1, k.by_orbit

    @pytest.mark.parametrize("system", [build_rank_one(), build_type_b(2)], ids=["rank1", "b2"])
    def test_k_half_reads_zero(self, rng, system):
        # δ ≡ 1 at k ≡ ½: a zero residual over a zero scale is 0, not 0/0
        k = multiplicity(system, 0.5)
        pts = sample_interior_points(system, 20, rng)
        for which in ("delta", "pi_power"):
            res, scale = harmonicity_residual(system, k, which, pts)
            assert np.all(res == 0.0) and np.all(scale == 0.0)
            rep = harmonicity_check(system, k, which=which, n_points=20, seed=3)
            assert rep.estimate == 0.0 and rep.passed

    def test_pi_harmonic(self, a2, rng):
        pts = sample_interior_points(a2, 100, rng)
        res, scale = harmonicity_residual(a2, None, "pi", pts)
        assert np.max(np.abs(res) / scale) <= 1e-12

    def test_pi_closed_form_is_the_laplacian(self, rng):
        # on vectors that are no root system π is not harmonic, and the
        # closed form must still agree with Richardson differences of π
        vecs = rng.standard_normal((4, 3))
        vecs *= np.sqrt(2.0) / np.linalg.norm(vecs, axis=1, keepdims=True)
        fake = types.SimpleNamespace(positive_roots=vecs)
        pts = 1.0 + rng.random((20, 3))
        res, scale = harmonicity_residual(fake, None, "pi", pts)
        second = _fd_scheme(lambda y: np.prod(y @ vecs.T, axis=-1), pts)[1]
        assert np.max(np.abs(res - _coordinate_sum(second)) / scale) <= 1e-7
        assert np.min(np.abs(res) / scale) >= 1e-3

    def test_pi_on_rank_one(self, rng):
        # π = α·x is linear: the residual is rounding over a nonzero scale
        for system in (build_rank_one(), build_type_a(2)):
            pts = sample_interior_points(system, 50, rng)
            res, scale = harmonicity_residual(system, None, "pi", pts)
            assert np.all(scale > 0.0) and np.max(np.abs(res) / scale) <= 1e-12

    def test_power_log_identity(self, b2, rng):
        pts = sample_interior_points(b2, 100, rng)
        res, scale = harmonicity_residual(b2, 0.8, "pi_power", pts)
        assert np.max(np.abs(res) / scale) <= 1e-12

    def test_power_log_identity_needs_one_k(self, b2, rng):
        # a multiplicity equal on every orbit is the scalar; unequal orbit
        # values have no single power π^{1−2k}, and used to read as k.by_orbit[0]
        pts = sample_interior_points(b2, 5, rng)
        scalar = harmonicity_residual(b2, 0.8, "pi_power", pts)
        const = harmonicity_residual(b2, multiplicity(b2, 0.8), "pi_power", pts)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(scalar, const))
        with pytest.raises(InvalidArgumentError):
            harmonicity_residual(b2, multiplicity(b2, [1.0, 0.5]), "pi_power", pts)

    def test_unknown_identity(self, b2, k_one):
        with pytest.raises(InvalidArgumentError):
            harmonicity_residual(b2, k_one, "nope", np.array([2.0, 1.0]))


class TestInteriorPoints:
    @pytest.mark.parametrize("system", [build_type_b(4), build_type_a(7)], ids=["b4", "a6"])
    def test_folded_points_keep_the_margin(self, system, rng):
        # the chamber holds 1/|W| of the Gaussian, 1/384 and 1/5040 here
        pts = sample_interior_points(system, 100, rng)
        assert pts.shape == (100, system.dimension)
        assert np.all(pts @ system.positive_roots.T > calculus.INTERIOR_MARGIN)

    def test_the_cap_is_a_package_error(self, b2, rng, monkeypatch):
        monkeypatch.setattr(calculus, "INTERIOR_MARGIN", 100.0)
        with pytest.raises(DunklLabError, match="kept 0 of 5 points"):
            sample_interior_points(b2, 5, rng)


def _sine_ridge(v):
    """u(x) = sin(x·v) in closed form; u∘θ is the ridge of θᵀv."""
    return _ridge_function(np.asarray(v, dtype=float), np.sin, np.cos,
                           lambda t: -np.sin(t), "sine")


def _off_wall_point(system, rng):
    """A point anywhere in space with every |α·x| ≥ 0.3."""
    x = 2.0 * rng.standard_normal(system.dimension)
    while np.min(np.abs(system.positive_roots @ x)) < 0.3:
        x = 2.0 * rng.standard_normal(system.dimension)
    return x


def _covariance_residuals(spec, rotated_spec, trials, rng):
    """|L^{θR} u(θx) − L^R (u∘θ)(x)| / scale over random θ, ridge u and x,
    where ``rotated_spec(θ)`` gives the spec on θR."""
    n = spec.system.dimension
    out = []
    for _ in range(trials):
        theta, v = haar_orthogonal(n, rng), rng.standard_normal(n)
        x = _off_wall_point(spec.system, rng)
        rotated = rotated_spec(theta)
        lhs = apply_generator(rotated, _sine_ridge(v), theta @ x)
        rhs = apply_generator(spec, _sine_ridge(theta.T @ v), x)
        out.append(abs(lhs - rhs) / generator_scale(rotated, _sine_ridge(v), theta @ x))
    return np.array(out)


class TestRotation:
    def test_identity_rotation_is_noop(self, b2, k_one, x21):
        spec = GeneratorSpec.full(b2, k_one)
        rotated = rotate_spec(spec, np.eye(2))
        fn = _sine_ridge([1.0, -0.3])
        assert apply_generator(rotated, fn, x21) == pytest.approx(
            apply_generator(spec, fn, x21), rel=1e-12)

    def test_reflection_by_root_preserves_system(self, b2, k_one):
        alpha = b2.positive_roots[0]
        sigma = np.eye(2) - np.outer(alpha, alpha)
        rotated = rotate_spec(GeneratorSpec.full(b2, k_one), sigma)
        for root in rotated.system.roots:
            dist = np.max(np.abs(b2.roots - root), axis=1).min()
            assert dist <= 1e-12

    def test_generator_identity_random_rotations(self, a2, b2, b3, rng):
        """L^{θR}_{k_θ} u(θx) = L^R_k (u∘θ)(x) to rounding, with the jump
        family transported too: the generator reads x only through α·x and Δ."""
        for system in (b2, b3, a2):
            k = multiplicity(system, list(rng.uniform(0.5, 2.0, len(system.orbits))))
            kp = multiplicity(system, list(rng.uniform(0.5, 2.0, len(system.orbits))))
            spec = GeneratorSpec.full(system, k, jump_k=kp)
            worst = _covariance_residuals(spec, lambda th: rotate_spec(spec, th), 50, rng)
            assert np.max(worst) <= 1e-12, system.dimension

    def test_wrong_transport_is_caught(self, b2, rng):
        # k_θ with its orbit values shifted by one breaks the identity in
        # every trial, by far more than its 1e-12 bound (the smallest read 2e-4)
        spec = GeneratorSpec.full(b2, multiplicity(b2, [0.75, 1.25]))

        def wrong(theta):
            rotated = rotate_spec(spec, theta)
            vals = rotated.k.by_orbit
            return GeneratorSpec.full(
                rotated.system, Multiplicity(system=rotated.system, by_orbit=vals[1:] + vals[:1]))

        assert np.min(_covariance_residuals(spec, wrong, 25, rng)) >= 1e-6

    def test_non_orthogonal_rejected(self, b2, k_one):
        with pytest.raises(InvalidArgumentError):
            rotate_spec(GeneratorSpec.full(b2, k_one),
                        np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("theta", [np.eye(3), np.eye(2, 3)], ids=["3x3", "2x3"])
    def test_theta_must_match_the_dimension(self, b2, theta):
        # a matmul and a broadcast ValueError on B2 before the check
        with pytest.raises(InvalidArgumentError, match="2×2"):
            rotate_system(b2, theta)


class TestGeneratorTerms:
    def test_terms_sum_to_value(self, b2, k_one, x21):
        spec = GeneratorSpec.full(b2, k_one)
        fn = with_differences(lambda x: np.sin(x[..., 0]) * x[..., 1])
        t = generator_terms(spec, fn, x21)
        total = t["half_laplacian"] + t["drift"] + t["jumps"]
        assert total == pytest.approx(apply_generator(spec, fn, x21), rel=1e-14)

    def test_scale_dominates_value(self, b2, k_one, x21):
        spec = GeneratorSpec.full(b2, k_one)
        fn = with_differences(lambda x: np.sin(x[..., 0]) * x[..., 1])
        assert generator_scale(spec, fn, x21) >= abs(
            apply_generator(spec, fn, x21)) - 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_coordinate_sums_are_numpys(n, rng):
    """The column-wise folds give numpy's bytes for every coordinate count
    the package builds (and defer to numpy past 7 coordinates)."""
    for shape in ((16, 100, n), (n,)):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        a[rng.random(shape) < 0.2] = 0.0
        a[rng.random(shape) < 0.2] = -0.0
        got = np.asarray(_coordinate_sum(a))
        assert got.shape == shape[:-1]
        assert got.tobytes() == np.asarray(a.sum(axis=-1)).tobytes()
        norm = np.asarray(np.sqrt(_coordinate_sum(a * a)))
        assert norm.tobytes() == np.asarray(np.linalg.norm(a, axis=-1)).tobytes()
