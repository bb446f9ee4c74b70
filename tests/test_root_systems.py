import json

import numpy as np
import pytest

from dunkl_lab import (
    DegenerateDirectionError,
    GroupCapExceededError,
    InvalidArgumentError,
    build_root_system,
    build_type_a,
    build_type_b,
    chamber_contains,
    check_invariance_condition,
    multiplicity,
    normalize_roots,
    orbit_decomposition,
    positive_subsystem,
    project_batch,
    reflect,
    system_from_json,
    system_to_json,
    validate_root_system,
)
from dunkl_lab import root_systems
from dunkl_lab.root_systems import Multiplicity


def _loop_closure(roots):
    """Reference closure: one product g·w and one key at a time, in (w, g) order."""
    gens = [root_systems.reflection_matrix(a) for a in roots]
    elements = [np.eye(roots.shape[1])]
    seen = {root_systems._dedup_key(elements[0])}
    frontier = elements[:]
    while frontier:
        new_frontier = []
        for w in frontier:
            for g in gens:
                cand = g @ w
                key = root_systems._dedup_key(cand)
                if key not in seen:
                    seen.add(key)
                    elements.append(cand)
                    new_frontier.append(cand)
        frontier = new_frontier
    return np.stack(elements)


def _dihedral_roots(m):
    """The 2m roots of the dihedral system I2(m), normalized."""
    angles = np.pi * np.arange(2 * m) / m
    return normalize_roots(np.stack([np.cos(angles), np.sin(angles)], axis=1))


class TestReflect:
    def test_basic_swap(self):
        out = reflect(np.array([1.0, -1.0]), np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, 1.0])

    def test_root_maps_to_negative(self, b2):
        for alpha in b2.positive_roots:
            assert np.allclose(reflect(alpha, alpha), -alpha, atol=1e-14)

    def test_fixed_hyperplane(self):
        alpha = np.array([1.0, -1.0])
        for c in (0.3, -2.0, 7.5):
            x = np.array([c, c])
            assert np.allclose(reflect(alpha, x), x)

    def test_involution_and_isometry(self, b3, rng):
        for alpha in b3.positive_roots:
            x = rng.standard_normal((50, 3))
            twice = reflect(alpha, reflect(alpha, x))
            assert np.max(np.abs(twice - x)) <= 1e-14
            norms = np.linalg.norm(reflect(alpha, x), axis=1)
            assert np.max(np.abs(norms - np.linalg.norm(x, axis=1))) <= 1e-12


class TestBuilders:
    def test_type_a_counts(self, a2):
        assert len(a2.roots) == 6
        assert a2.n_positive == 3
        assert len(a2.weyl_group) == 6
        assert len(a2.orbits) == 1

    def test_type_a_minimal(self):
        sys1 = build_type_a(2)
        assert sys1.n_positive == 1
        assert len(sys1.weyl_group) == 2

    def test_type_a_rejects_small_n(self):
        with pytest.raises(InvalidArgumentError):
            build_type_a(1)

    def test_type_b2_matches_standard_enumeration(self, b2):
        expected = np.array([
            [1.0, -1.0],
            [1.0, 1.0],
            [np.sqrt(2.0), 0.0],
            [0.0, np.sqrt(2.0)],
        ])
        assert np.allclose(b2.positive_roots, expected)
        assert len(b2.roots) == 8
        assert len(b2.weyl_group) == 8
        assert len(b2.orbits) == 2
        # two positive roots in each orbit
        pos_orbits = b2.positive_orbit_index()
        assert (pos_orbits == 0).sum() == 2
        assert (pos_orbits == 1).sum() == 2

    def test_type_b3(self, b3):
        assert len(b3.roots) == 18
        assert len(b3.weyl_group) == 48
        assert len(b3.orbits) == 2

    def test_weyl_order_a3(self, a3):
        assert len(a3.weyl_group) == 24

    def test_all_roots_normalized(self, a3, b3):
        for system in (a3, b3):
            sq = np.einsum("ij,ij->i", system.roots, system.roots)
            assert np.max(np.abs(sq - 2.0)) <= 1e-12


class TestAxioms:
    @pytest.mark.parametrize("builder,n", [(build_type_a, 3), (build_type_a, 4),
                                           (build_type_b, 2), (build_type_b, 3)])
    def test_validate_passes(self, builder, n):
        system = builder(n)
        validate_root_system(system.roots)

    def test_root_closure_exhaustive(self, b3):
        roots = b3.roots
        for alpha in roots:
            for image in reflect(alpha, roots):
                dist = np.max(np.abs(roots - image), axis=1).min()
                assert dist <= 1e-12

    def test_validator_rejects_broken_set(self):
        # drop one negative root: R ∩ ℝα = {±α} fails
        roots = normalize_roots([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(InvalidArgumentError):
            validate_root_system(roots)

    def test_validator_rejects_unnormalized(self):
        with pytest.raises(InvalidArgumentError):
            validate_root_system(np.array([[1.0, 0.0], [-1.0, 0.0]]))

    def test_weyl_group_is_orthogonal_and_stable(self, b2):
        for w in b2.weyl_group:
            assert np.max(np.abs(w.T @ w - np.eye(2))) <= 1e-12
            for alpha in b2.roots:
                image = w @ alpha
                dist = np.max(np.abs(b2.roots - image), axis=1).min()
                assert dist <= 1e-9

    def test_weyl_group_closed_under_product_and_inverse(self, b2):
        keys = {np.round(w, 9).tobytes() for w in b2.weyl_group}
        for w1 in b2.weyl_group:
            assert (np.round(w1.T, 9) + 0.0).tobytes() in {
                (np.round(w, 9) + 0.0).tobytes() for w in b2.weyl_group
            }
            for w2 in b2.weyl_group:
                prod = np.round(w1 @ w2, 9) + 0.0
                assert prod.tobytes() in keys

    def test_weyl_group_cap(self, monkeypatch):
        """The closure raises past ``WEYL_GROUP_CAP`` elements, read at call time."""
        monkeypatch.setattr(root_systems, "WEYL_GROUP_CAP", 5)
        with pytest.raises(GroupCapExceededError):
            build_type_b(2)
        monkeypatch.setattr(root_systems, "WEYL_GROUP_CAP", 8)
        assert len(build_type_b(2).weyl_group) == 8

    @pytest.mark.parametrize("build, n", [(build_type_a, 10), (build_type_b, 8)],
                             ids=["A9", "B8"])
    def test_known_order_past_the_cap_is_refused_first(self, monkeypatch, build, n):
        """|W| = n! for type A and 2ⁿ·n! for type B: past ``WEYL_GROUP_CAP``
        no closure is run."""
        def no_closure(roots):
            raise AssertionError("the closure ran")

        monkeypatch.setattr(root_systems, "generate_weyl_group", no_closure)
        with pytest.raises(GroupCapExceededError):
            build(n)

    @pytest.mark.parametrize("batch", [1, 7, root_systems.CLOSURE_BATCH])
    def test_weyl_group_matches_loop_closure(self, monkeypatch, batch):
        """The batched closure gives the one-product-at-a-time closure's
        elements bit for bit and in its order, whatever the batch size."""
        monkeypatch.setattr(root_systems, "CLOSURE_BATCH", batch)
        theta = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        cases = [build_type_b(n).roots for n in (2, 3, 4)]
        cases += [build_type_a(n).roots for n in (3, 4, 5)]
        cases += [_dihedral_roots(m) for m in (5, 7, 8)]
        cases.append(build_type_b(3).roots @ theta.T)
        for roots in cases:
            got = root_systems.generate_weyl_group(roots)
            assert got.tobytes() == _loop_closure(roots).tobytes()

    def test_weyl_group_cap_in_small_batches(self, monkeypatch):
        monkeypatch.setattr(root_systems, "CLOSURE_BATCH", 3)
        monkeypatch.setattr(root_systems, "WEYL_GROUP_CAP", 47)
        with pytest.raises(GroupCapExceededError):
            build_type_b(3)

    def test_reflections_in_group_match_roots(self, b2):
        # order-2 elements with a fixed hyperplane are exactly the σ_α
        found = 0
        for w in b2.weyl_group:
            if np.allclose(w @ w, np.eye(2), atol=1e-12) and not np.allclose(w, np.eye(2)):
                eigvals, eigvecs = np.linalg.eigh(w)
                if np.allclose(sorted(eigvals), [-1.0, 1.0], atol=1e-9):
                    axis = eigvecs[:, 0]  # eigenvector of -1: parallel to a root
                    dots = np.abs(b2.roots @ axis)
                    assert np.max(dots) > 1.0  # matches some root direction
                    found += 1
        assert found == 4  # one reflection per positive root


class TestNormalize:
    def test_axis_vector(self):
        out = normalize_roots([[1.0, 0.0]])
        assert np.allclose(out, [[np.sqrt(2.0), 0.0]])

    def test_already_normalized(self):
        out = normalize_roots([[1.0, -1.0]])
        assert np.allclose(out, [[1.0, -1.0]])

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidArgumentError):
            normalize_roots([[0.0, 0.0]])

    def test_rescaled_b2_validates(self):
        raw = [[1, 0], [-1, 0], [0, 1], [0, -1],
               [1, 1], [-1, -1], [1, -1], [-1, 1]]
        roots = normalize_roots(raw)
        validate_root_system(roots)


class TestPositiveSubsystem:
    def test_a2_with_generic_beta(self, a2):
        idx = positive_subsystem(a2.roots, [3.0, 2.0, 1.0])
        chosen = a2.roots[idx]
        eye = np.eye(3)
        expected = [eye[0] - eye[1], eye[0] - eye[2], eye[1] - eye[2]]
        for e in expected:
            assert np.min(np.max(np.abs(chosen - e), axis=1)) <= 1e-12

    def test_b2_beta_21_gives_standard_positives(self, b2):
        idx = positive_subsystem(b2.roots, [2.0, 1.0])
        assert np.allclose(b2.roots[idx], b2.positive_roots)

    def test_opposite_beta_flips(self, b2):
        plus = set(map(int, positive_subsystem(b2.roots, [2.0, 1.0])))
        minus = set(map(int, positive_subsystem(b2.roots, [-2.0, -1.0])))
        assert plus.isdisjoint(minus)
        assert plus | minus == set(range(len(b2.roots)))

    def test_degenerate_direction(self, b2):
        with pytest.raises(DegenerateDirectionError):
            positive_subsystem(b2.roots, [1.0, 1.0])


class TestOrbits:
    def test_a2_single_orbit(self, a2):
        orbits = orbit_decomposition(a2.roots, a2.weyl_group)
        assert len(orbits) == 1

    def test_b2_two_orbits_short_long(self, b2):
        orbits = orbit_decomposition(b2.roots, b2.weyl_group)
        assert len(orbits) == 2
        sq_norm_first = {round(float(b2.roots[o[0]] @ b2.roots[o[0]]), 9)
                         for o in orbits}
        assert sq_norm_first == {2.0}  # all rescaled to the same norm
        # orbits split by axis-alignment after rescaling
        axis_roots = {i for i, r in enumerate(b2.roots)
                      if np.min(np.abs(r)) < 1e-12}
        assert set(orbits[1]) == axis_roots


class TestChamber:
    def test_interior_boundary_exterior(self, b2):
        assert chamber_contains(b2.positive_roots, [2.0, 1.0]) == "interior"
        assert chamber_contains(b2.positive_roots, [1.0, 1.0]) == "boundary"
        assert chamber_contains(b2.positive_roots, [1.0, 2.0]) == "exterior"

    def test_projection_examples(self, a2, b2):
        x = np.array([1.0, 3.0, 2.0])
        (y,) = project_batch(a2, [x])
        assert np.allclose(y, [3.0, 2.0, 1.0])
        assert any(np.allclose(w @ x, y) for w in a2.weyl_group)
        assert np.allclose(project_batch(b2, [[-1.0, 3.0]]), [[3.0, 1.0]])

    def test_projection_fixes_chamber_points(self, b2):
        x = np.array([[2.0, 1.0]])
        assert np.array_equal(project_batch(b2, x), x)

    def test_projection_idempotent_and_invariant(self, b2, rng):
        xs = rng.standard_normal((25, 2)) * 3
        y = project_batch(b2, xs)
        assert np.allclose(project_batch(b2, y), y, atol=1e-12)
        for w in b2.weyl_group:
            assert np.allclose(project_batch(b2, xs @ w.T), y, atol=1e-9)

    def test_project_batch_matches_scalar(self, b2, rng):
        """Projecting the batch at once and one row at a time agree bit for bit."""
        xs = rng.standard_normal((40, 2)) * 2
        batch = project_batch(b2, xs)
        for x, y in zip(xs, batch):
            assert np.array_equal(project_batch(b2, x[None]), y[None])


class TestInvarianceCondition:
    def test_b2_standard_enumeration_all_true(self, b2):
        assert all(check_invariance_condition(b2, i) for i in range(1, 5))

    def test_a2_default_enumeration_fails_in_middle(self, a2):
        values = [check_invariance_condition(a2, i) for i in range(1, 4)]
        assert values[0] and values[-1]
        assert not all(values)

    def test_first_and_last_always_true(self, b2, a3, rng):
        for system in (b2, a3):
            m = system.n_positive
            for _ in range(20):
                enum = tuple(rng.permutation(m))
                assert check_invariance_condition(system, 1, enum)
                assert check_invariance_condition(system, m, enum)

    def test_index_out_of_range(self, b2):
        with pytest.raises(InvalidArgumentError):
            check_invariance_condition(b2, 0)
        with pytest.raises(InvalidArgumentError):
            check_invariance_condition(b2, 5)


class TestMultiplicity:
    def test_scalar_and_per_orbit(self, b2):
        k = multiplicity(b2, 1.0)
        assert k.gamma == pytest.approx(4.0)
        k2 = multiplicity(b2, [0.75, 1.25])
        assert k2.gamma == pytest.approx(2 * 0.75 + 2 * 1.25)
        assert k2.min_value == 0.75

    def test_w_invariance_structural(self, b2):
        k = multiplicity(b2, [0.5, 2.0]).per_positive()
        pos = b2.positive_roots
        for w in b2.weyl_group:
            for i, alpha in enumerate(pos):
                image = w @ alpha
                # the positive root ±w·α
                j = int(np.argmin(np.minimum(np.max(np.abs(pos - image), axis=1),
                                             np.max(np.abs(pos + image), axis=1))))
                assert k[i] == k[j]

    def test_negative_rejected(self, b2):
        with pytest.raises(InvalidArgumentError):
            multiplicity(b2, -0.5)

    @pytest.mark.parametrize("name", ["a2", "b2", "b3"])
    def test_positive_data_built_once_and_read_only(self, request, name):
        system = request.getfixturevalue(name)
        k = multiplicity(system, np.arange(1.0, len(system.orbits) + 1.0))
        assert system.positive_roots is system.positive_roots
        assert k.per_positive() is k.per_positive()
        assert np.array_equal(system.positive_roots, system.roots[system.positive])
        assert np.array_equal(k.per_positive(),
                              np.asarray(k.by_orbit)[system.positive_orbit_index()])
        for a in (system.positive_roots, k.per_positive()):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_wrong_arity_rejected(self, b2):
        with pytest.raises(InvalidArgumentError):
            Multiplicity(system=b2, by_orbit=(1.0,))

    def test_dict_values(self, b2):
        k = multiplicity(b2, {0: 1.0, 1: 0.5})
        assert k.by_orbit == (1.0, 0.5)


class TestSerialization:
    def test_round_trip(self, b2):
        text = system_to_json(b2)
        doc = json.loads(text)
        assert doc["dimension"] == 2
        assert "1.4142135623730951" in text
        back = system_from_json(text)
        assert np.array_equal(back.roots, b2.roots)
        assert np.array_equal(back.positive, b2.positive)
        assert back.orbits == b2.orbits

    def test_rejects_tampered_orbits(self, b2):
        doc = json.loads(system_to_json(b2))
        doc["orbits"] = [[int(i) for i in range(8)]]
        with pytest.raises(InvalidArgumentError):
            system_from_json(json.dumps(doc))


class TestCustomBuild:
    def test_build_from_raw_b2(self):
        raw = [[1, 0], [-1, 0], [0, 1], [0, -1],
               [1, 1], [-1, -1], [1, -1], [-1, 1]]
        system = build_root_system(raw, beta=[2.0, 1.0])
        assert system.n_positive == 4
        assert len(system.weyl_group) == 8

    def test_rank_one(self, rank1):
        assert rank1.dimension == 1
        assert len(rank1.weyl_group) == 2
        assert rank1.n_positive == 1
