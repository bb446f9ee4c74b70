"""Root systems, Weyl groups, chambers, and multiplicity functions.

All roots are stored in the normalization α·α = 2, so the reflection across
the hyperplane orthogonal to α takes the short form σ_α(x) = x − (α·x)α.
A (reduced) root system is a finite set R ⊂ ℝⁿ \\ {0} with R ∩ ℝα = {±α}
and σ_α(R) = R for every α ∈ R; the Weyl group is the finite group
generated by the reflections σ_α.

Roots are stored positives first, so ``roots[positive]`` is the default
enumeration (α_1, …, α_m) of the positive subsystem.  For the type-B
builder that order matches the conventional one: difference roots, then
sum roots, then the rescaled axis roots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDirectionError,
    GroupCapExceededError,
    InvalidArgumentError,
)

ROOT_MATCH_TOL = 1e-9     # entrywise tolerance for identifying two roots
GROUP_DEDUP_TOL = 1e-9    # max-entry tolerance for identifying group elements
NORM_TOL = 1e-12          # tolerance on α·α = 2
DEFAULT_BOUNDARY_TOL = 1e-12
WEYL_GROUP_CAP = 10**6
CLOSURE_BATCH = 1 << 8    # products g·w the closure forms, or images w·α matched, at once


def reflect(alpha, x):
    """Reflection σ_α(x) = x − (α·x)α for a root with α·α = 2.

    ``x`` may carry leading batch axes; the last axis is the coordinate
    axis.  Involutive and norm preserving.
    """
    alpha = np.asarray(alpha, dtype=float)
    x = np.asarray(x, dtype=float)
    return x - np.multiply.outer(x @ alpha, alpha)


def reflection_matrix(alpha):
    """Matrix of σ_α, i.e. I − α αᵀ in the α·α = 2 normalization."""
    alpha = np.asarray(alpha, dtype=float)
    return np.eye(alpha.shape[0]) - np.outer(alpha, alpha)


def normalize_roots(raw_roots):
    """Rescale each root to α·α = 2.

    Rescaling commutes with reflections, so a reflection-closed set stays
    reflection-closed.  Raises on a zero vector.
    """
    roots = np.atleast_2d(np.asarray(raw_roots, dtype=float))
    norms = np.linalg.norm(roots, axis=1)
    if np.any(norms == 0.0):
        raise InvalidArgumentError("zero vector cannot be a root")
    return roots * (np.sqrt(2.0) / norms)[:, None]


def _match_root(roots, v):
    """Index in ``roots`` of each row of ``v`` (k, n) up to ``ROOT_MATCH_TOL``
    entrywise, or -1: one (k, len(roots), n) comparison."""
    dist = np.max(np.abs(roots - v[:, None]), axis=2)
    return np.where(dist.min(axis=1) <= ROOT_MATCH_TOL, dist.argmin(axis=1), -1)


def _dedup_key(mat):
    # adding 0.0 maps -0.0 to +0.0 so keys are sign-of-zero stable
    decimals = int(round(-np.log10(GROUP_DEDUP_TOL)))
    return (np.round(np.asarray(mat), decimals) + 0.0).tobytes()


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data: roots, positive subsystem, Weyl group, orbits.

    ``roots`` has shape (2m, n) with the m positive roots first;
    ``positive`` indexes them; ``weyl_group`` stacks orthogonal matrices in
    their deterministic closure-discovery order (identity first);
    ``orbits`` partitions root indices into Weyl orbits.
    ``positive_roots``, ``roots[positive]``, is built once.
    """

    dimension: int
    roots: np.ndarray
    positive: np.ndarray
    weyl_group: np.ndarray
    orbits: tuple

    def __post_init__(self):
        object.__setattr__(self, "_positive_roots", self.roots[self.positive])
        for name in ("roots", "positive", "weyl_group", "_positive_roots"):
            getattr(self, name).setflags(write=False)

    @property
    def positive_roots(self):
        """The positive roots, (m, n), as one read-only array."""
        return self._positive_roots

    @property
    def n_positive(self):
        return len(self.positive)

    def positive_orbit_index(self):
        """Orbit index of each positive root, aligned with ``positive``."""
        orbit_of = {r: i for i, orbit in enumerate(self.orbits) for r in orbit}
        return np.array([orbit_of[int(r)] for r in self.positive])


def validate_root_system(roots):
    """Check the root-system axioms; raise ``InvalidArgumentError`` on failure."""
    roots = np.atleast_2d(np.asarray(roots, dtype=float))
    if roots.size == 0:
        raise InvalidArgumentError("empty root set")
    sq = np.einsum("ij,ij->i", roots, roots)
    if np.any(np.abs(sq - 2.0) > NORM_TOL):
        raise InvalidArgumentError("roots must satisfy α·α = 2; run normalize_roots first")
    dups = (np.max(np.abs(roots - roots[:, None]), axis=2) <= ROOT_MATCH_TOL).sum(axis=1)
    negs = _match_root(roots, -roots)
    for i in range(len(roots)):
        if dups[i] != 1:
            raise InvalidArgumentError("duplicate root detected")
        if negs[i] < 0:
            raise InvalidArgumentError(f"root {i}: −α missing (R ∩ ℝα = {{±α}} fails)")
    # closure under its own reflections, all images of one root at a time
    for alpha in roots:
        missing = np.flatnonzero(_match_root(roots, reflect(alpha, roots)) < 0)
        if missing.size:
            raise InvalidArgumentError(
                f"reflection closure fails: σ_α({roots[missing[0]]}) not in R"
            )


def positive_subsystem(roots, beta):
    """Indices of the positive subsystem {α : α·β > 0}, in storage order.

    Raises ``DegenerateDirectionError`` when β lies on a reflecting
    hyperplane, since the split is then ill defined.
    """
    roots = np.atleast_2d(np.asarray(roots, dtype=float))
    beta = np.asarray(beta, dtype=float)
    dots = roots @ beta
    if np.any(dots == 0.0):
        raise DegenerateDirectionError("β is orthogonal to a root")
    return np.nonzero(dots > 0.0)[0]


def generate_weyl_group(roots):
    """Breadth-first closure of the reflections σ_α under composition.

    Deterministic element order: identity, then discovery order when
    multiplying by the generators in root order.  The products g·w of a
    frontier are formed ``CLOSURE_BATCH`` at a time.  Raises
    ``GroupCapExceededError`` if the closure exceeds ``WEYL_GROUP_CAP``
    elements, which guards against accidental non-root input.
    """
    roots = np.atleast_2d(np.asarray(roots, dtype=float))
    n = roots.shape[1]
    gens = np.stack([reflection_matrix(a) for a in roots])
    identity = np.eye(n)
    elements = [identity]
    seen = {_dedup_key(identity)}
    frontier = identity[None]
    step = max(1, CLOSURE_BATCH // len(gens))  # frontier elements per batch
    while len(frontier):
        new_frontier = []
        for lo in range(0, len(frontier), step):
            # candidates g·w in (w, g) order, one product and one rounding per batch
            cands = np.matmul(gens[None], frontier[lo:lo + step, None]).reshape(-1, n, n)
            keys = _dedup_key(cands)
            size = len(keys) // len(cands)
            for i, cand in enumerate(cands):
                key = keys[i * size:(i + 1) * size]
                if key not in seen:
                    seen.add(key)
                    elements.append(cand.copy())  # not a view that keeps the batch alive
                    new_frontier.append(elements[-1])
                    if len(elements) > WEYL_GROUP_CAP:
                        raise GroupCapExceededError(
                            f"reflection closure exceeded {WEYL_GROUP_CAP} elements"
                        )
        frontier = np.array(new_frontier).reshape(-1, n, n)
    return np.stack(elements)


def orbit_decomposition(roots, weyl_group):
    """Partition root indices into Weyl orbits (sorted, smallest index first)."""
    roots = np.atleast_2d(np.asarray(roots, dtype=float))
    unassigned = set(range(len(roots)))
    orbits = []
    while unassigned:
        start = min(unassigned)
        images = np.asarray(weyl_group, dtype=float) @ roots[start]
        members = np.concatenate([_match_root(roots, images[lo:lo + CLOSURE_BATCH])
                                  for lo in range(0, len(images), CLOSURE_BATCH)])
        if (members < 0).any():
            raise InvalidArgumentError("Weyl group does not map R onto R")
        members = set(members.tolist())
        orbits.append(tuple(sorted(members)))
        unassigned -= members
    return tuple(orbits)


def _system(roots, positive=None, beta=None):
    """The one constructor: validate ``roots``, then W, then its orbits.

    ``positive`` indexes the positive roots in ``roots``; when it is None
    the roots are reordered positives first along ``beta`` (default: the
    generic vector (n, n−1, …, 1)).
    """
    validate_root_system(roots)
    if positive is None:
        beta = np.arange(roots.shape[1], 0, -1, dtype=float) if beta is None else beta
        pos = positive_subsystem(roots, beta)
        neg = _match_root(roots, -roots[pos])
        roots, positive = np.concatenate([roots[pos], roots[neg]]), np.arange(len(pos))
    weyl = generate_weyl_group(roots)
    return RootSystem(dimension=roots.shape[1], roots=roots, positive=positive,
                      weyl_group=weyl, orbits=orbit_decomposition(roots, weyl))


def build_root_system(raw_roots, beta=None):
    """Assemble a validated ``RootSystem`` from a full set of raw roots.

    Roots are rescaled to α·α = 2 and reordered positives-first using the
    direction ``beta`` (default: the generic vector (n, n−1, …, 1)).
    """
    return _system(normalize_roots(raw_roots), beta=beta)


def _check_order(order):
    """Refuse a Weyl group whose known order exceeds ``WEYL_GROUP_CAP``
    before its closure is run."""
    if order > WEYL_GROUP_CAP:
        raise GroupCapExceededError(
            f"the Weyl group has {order} elements, more than {WEYL_GROUP_CAP}")


def build_type_a(n):
    """Type A_{n−1} in ℝⁿ: roots e_i − e_j, chamber x_1 > x_2 > … > x_n.

    Positive roots are ordered lexicographically by (i, j), i < j.
    """
    if n < 2:
        raise InvalidArgumentError("type A needs n ≥ 2")
    _check_order(math.factorial(n))
    eye = np.eye(n)
    pos = np.array([eye[i] - eye[j] for i in range(n) for j in range(i + 1, n)])
    return _system(np.concatenate([pos, -pos]), np.arange(len(pos)))


def build_type_b(n):
    """Type B_n with short roots rescaled: ±(e_i ± e_j) and ±√2 e_i.

    The rescaling puts every root on norm² = 2 so σ_α(x) = x − (α·x)α holds
    verbatim.  Positive order: differences e_i − e_j, sums e_i + e_j, then
    axis roots √2 e_i — for n = 2 this is the enumeration
    (e₁−e₂, e₁+e₂, √2e₁, √2e₂).  Chamber: x_1 > … > x_n > 0.  Two orbits:
    orbit 0 holds the ±e_i±e_j ("long") roots, orbit 1 the axis ("short")
    roots.
    """
    if n < 2:
        raise InvalidArgumentError("type B needs n ≥ 2")
    _check_order(2**n * math.factorial(n))
    eye = np.eye(n)
    pos = [eye[i] - eye[j] for i in range(n) for j in range(i + 1, n)]
    pos += [eye[i] + eye[j] for i in range(n) for j in range(i + 1, n)]
    pos = np.array(pos + [np.sqrt(2.0) * eye[i] for i in range(n)])
    return _system(np.concatenate([pos, -pos]), np.arange(len(pos)))


def build_rank_one():
    """The rank-1 system {±√2 e₁} on the line; chamber x > 0."""
    return _system(np.array([[np.sqrt(2.0)], [-np.sqrt(2.0)]]), np.arange(1))


def chamber_contains(positive_roots, x):
    """Classify ``x`` against C = {y : y·α > 0 ∀α ∈ R₊}.

    Returns "interior", "boundary", or "exterior".  Boundary means at
    least one wall product within ``DEFAULT_BOUNDARY_TOL`` of zero and
    none below its negative.
    """
    dots = np.asarray(positive_roots, dtype=float) @ np.asarray(x, dtype=float)
    if np.all(dots > DEFAULT_BOUNDARY_TOL):
        return "interior"
    if np.all(dots >= -DEFAULT_BOUNDARY_TOL):
        return "boundary"
    return "exterior"


def project_batch(system, states):
    """Chamber representative of the W-orbit of each row of ``states`` (N, n).

    A row's image is w·x for the first group element (in the canonical
    closure order) with w·x in the closed chamber, up to
    ``DEFAULT_BOUNDARY_TOL``; the fixed order makes boundary ties
    deterministic.
    """
    states = np.asarray(states, dtype=float)
    out = np.empty_like(states)
    pending = np.ones(len(states), dtype=bool)
    pos_t = np.ascontiguousarray(system.positive_roots.T)
    for w in system.weyl_group:
        if not pending.any():
            break
        cand = states[pending] @ np.ascontiguousarray(w.T)
        ok = np.all(cand @ pos_t >= -DEFAULT_BOUNDARY_TOL, axis=1)
        idx = np.nonzero(pending)[0][ok]
        out[idx] = cand[ok]
        pending[idx] = False
    if pending.any():
        raise RuntimeError("no chamber representative found; corrupt Weyl group")
    return out


def chamber_labels(system, states):
    """Chamber label of each row of ``states``: the index into
    ``weyl_group`` of the w with w⁻¹x ∈ C.

    Read off x's sign pattern against R₊: the chamber w(C) has the pattern
    of w·ρ, with ρ = Σ_{α∈R₊} α in C.  Meaningful off the walls only.
    """
    pos = system.positive_roots
    bits = 1 << np.arange(len(pos), dtype=np.int64)
    codes = (system.weyl_group @ pos.sum(axis=0) @ pos.T > 0) @ bits
    order = np.argsort(codes)
    got = (np.asarray(states, dtype=float) @ np.ascontiguousarray(pos.T) > 0) @ bits  # 4× faster
    return order[np.minimum(np.searchsorted(codes[order], got), len(codes) - 1)]


def check_invariance_condition(system, i, enumeration=None):
    """Whether σ_{α_i} maps {±α_1, …, ±α_{i−1}} onto itself.

    ``i`` is 1-based (1 ≤ i ≤ m) to match the usual enumeration of R₊;
    ``enumeration`` lists positions into the positive order (default: the
    stored order).  Stages 1 and m are always invariant.
    """
    m = system.n_positive
    enumeration = _as_enumeration(system, enumeration)
    if not 1 <= i <= m:
        raise InvalidArgumentError(f"stage index {i} out of range 1..{m}")
    pos = system.positive_roots
    alpha_i = pos[enumeration[i - 1]]
    prev = pos[list(enumeration[: i - 1])]
    if len(prev) == 0:
        return True
    prev_full = np.concatenate([prev, -prev])
    images = reflect(alpha_i, prev_full)
    return bool((_match_root(prev_full, images) >= 0).all())


def _as_enumeration(system, enumeration):
    m = system.n_positive
    if enumeration is None:
        return tuple(range(m))
    enumeration = tuple(int(e) for e in enumeration)
    if not all(0 <= e < m for e in enumeration):
        raise InvalidArgumentError("enumeration entries must index positive roots")
    if len(set(enumeration)) != len(enumeration):
        raise InvalidArgumentError("enumeration repeats a root")
    return enumeration


@dataclass(frozen=True)
class Multiplicity:
    """W-invariant multiplicity function: one nonnegative value per orbit.

    Constancy on orbits is structural (values are stored per orbit), which
    is exactly the W-invariance k∘w = k.  The values per positive root are
    built once.
    """

    system: RootSystem
    by_orbit: tuple

    def __post_init__(self):
        if len(self.by_orbit) != len(self.system.orbits):
            raise InvalidArgumentError(
                f"need {len(self.system.orbits)} orbit values, got {len(self.by_orbit)}"
            )
        if any(not np.isfinite(v) or v < 0 for v in self.by_orbit):
            raise InvalidArgumentError("multiplicity values must be finite and ≥ 0")
        per_positive = np.asarray(self.by_orbit, dtype=float)[self.system.positive_orbit_index()]
        per_positive.setflags(write=False)
        object.__setattr__(self, "_per_positive", per_positive)

    def per_positive(self):
        """Values aligned with the positive enumeration, shape (m,), read-only."""
        return self._per_positive

    @property
    def gamma(self):
        """γ = Σ_{α ∈ R₊} k(α), summed over the stored orbit values."""
        return float(np.sum(self.per_positive()))

    @property
    def min_value(self):
        return float(min(self.by_orbit))


def multiplicity(system, values):
    """Build a ``Multiplicity`` from a scalar, per-orbit sequence, or mapping."""
    n_orbits = len(system.orbits)
    if np.isscalar(values):
        by_orbit = (float(values),) * n_orbits
    elif isinstance(values, dict):
        per_orbit = {int(k): float(v) for k, v in values.items()}
        missing = set(range(n_orbits)) - set(per_orbit)
        if missing:
            raise InvalidArgumentError(f"missing multiplicity for orbits {sorted(missing)}")
        by_orbit = tuple(per_orbit[k] for k in sorted(per_orbit))
    else:
        by_orbit = tuple(float(v) for v in values)
    return Multiplicity(system=system, by_orbit=by_orbit)


def system_to_dict(system):
    """JSON-ready document: {dimension, roots, positive, orbits}.

    Coordinates serialize as exact shortest-roundtrip decimals (√2 becomes
    1.4142135623730951); the Weyl group is regenerated on load.
    """
    return {
        "dimension": int(system.dimension),
        "roots": [[float(c) for c in row] for row in system.roots],
        "positive": [int(i) for i in system.positive],
        "orbits": [[int(i) for i in orbit] for orbit in system.orbits],
    }


def system_from_dict(doc):
    roots = np.asarray(doc["roots"], dtype=float)
    positive = np.asarray(doc["positive"], dtype=int)
    system = _system(roots, positive)
    if roots.shape[1] != int(doc["dimension"]):
        raise InvalidArgumentError("dimension does not match root coordinates")
    if len(set(int(i) for i in positive)) != len(positive):
        raise InvalidArgumentError("positive indices repeat")
    seen = set()
    for i, j in zip(positive, _match_root(roots, -roots[positive])):
        if j < 0 or j in seen:
            raise InvalidArgumentError("positive indices must pick one of each ±α pair")
        seen.add(int(i))
    if 2 * len(positive) != len(roots):
        raise InvalidArgumentError("positive must select exactly half of the roots")
    declared = tuple(tuple(sorted(int(i) for i in orbit)) for orbit in doc["orbits"])
    if tuple(sorted(declared)) != tuple(sorted(system.orbits)):
        raise InvalidArgumentError("declared orbits disagree with the Weyl action")
    return system


def system_to_json(system, **kwargs):
    return json.dumps(system_to_dict(system), **kwargs)


def system_from_json(text):
    return system_from_dict(json.loads(text))
