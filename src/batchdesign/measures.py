"""Weightings on the pool: the capped simplex and its special points.

The feasible set is Omega_eps = { w : 0 <= w_i <= eps, sum w_i = 1 }.  With
eps = 1/n every size-n subset corresponds to the feasible weighting that puts
1/n on its points, which is what makes relaxation bounds transfer to samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atoms import as_atom_set
from .criteria import is_singular
from .errors import DimensionMismatch, InfeasibleEpsilon, InfeasibleMass, PositivityRepairFailed

# tolerance bands shared by validation and active-set classification
CAP_SLACK = 1e-12       # allowed overshoot of a single weight above eps
SUM_TOL = 1e-10         # allowed deviation of the total mass from one
ZERO_BAND = 1e-9        # |w_i| below this counts as "at zero"
CAP_BAND = 1e-9         # |w_i - eps| below this counts as "at the cap"
MASS_TOL = 1e-12        # projection accuracy on the total mass
# N * eps may fall short of one by the rounding of eps = 1/n and of the product
CAPACITY_TOL = 4 * np.finfo(float).eps
_PROJ_MAX_ITERS = 200   # Newton/bisection steps of the projection (5-12 in practice)


def _check_capacity(N: int, epsilon: float) -> None:
    """Raise InfeasibleEpsilon unless N weights capped at epsilon can sum to one.

    The one feasibility rule: N * epsilon >= 1 up to CAPACITY_TOL, which
    admits epsilon = 1/N in floating point and nothing short of it.
    """
    if N * epsilon < 1.0 - CAPACITY_TOL:
        raise InfeasibleEpsilon(f"N * epsilon = {N * epsilon!r} < 1")


@dataclass(frozen=True)
class Measure:
    """A feasible weighting of the pool.

    certificate is the full-pool evaluation that solvers.solve_hybrid
    attaches to the weighting it returns, for efficiency_bounds to reuse; a
    Measure built from weights carries none.
    """

    weights: np.ndarray
    epsilon: float
    certificate: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        eps = float(self.epsilon)
        if w.ndim != 1 or w.shape[0] == 0:
            raise ValueError("weights must be a nonempty vector")
        n = w.shape[0]
        if not np.isfinite(eps) or eps <= 0:
            raise ValueError(f"epsilon must be positive, got {eps}")
        _check_capacity(n, eps)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w.min() < -CAP_SLACK or w.max() > eps + CAP_SLACK:
            raise ValueError(
                f"weights outside [0, eps]: min {w.min():.3e}, max {w.max():.3e}, eps {eps:.3e}"
            )
        total = float(w.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "epsilon", eps)

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class SampleSet:
    """A selected subset of pool indices.

    indices may be any sequence or vector of integers; it is kept as a
    sorted tuple of Python ints.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        ordered = _sorted_unique(idx)
        if ordered.size != idx.size:
            raise ValueError("sample indices must be distinct")
        if ordered.size and ordered[0] < 0:
            raise ValueError("sample indices must be nonnegative")
        object.__setattr__(self, "indices", tuple(ordered.tolist()))

    def __len__(self) -> int:
        return len(self.indices)


def _greedy_linear_max(scores: np.ndarray, epsilon: float, mass: float) -> np.ndarray:
    """Maximize sum u_i * scores_i over 0 <= u <= eps, sum u = mass.

    Fills the cap greedily by descending score, ties broken by ascending
    index; the leftover mass lands on the next-ranked point.  Nothing is
    sorted: a partition finds the threshold score of the last point that
    receives mass, every point above it is taken, then the tied points in
    index order, and the last tied point taken is the one ranked last.
    """
    n = scores.shape[0]
    full = min(int(np.floor(mass / epsilon + 1e-9)), n)
    if full * epsilon > mass + MASS_TOL:  # the slack rounded mass / epsilon up past it
        full -= 1
    resid = mass - full * epsilon
    need = min(full + (resid > MASS_TOL), n)
    u = np.zeros(n)
    if need == 0:
        return u
    neg = -scores
    threshold = np.partition(neg, need - 1)[need - 1]
    u[neg < threshold] = epsilon
    tied = np.flatnonzero(neg == threshold)[: need - np.count_nonzero(u)]
    u[tied] = epsilon
    if need > full:
        u[tied[-1]] = resid
    return u


def sg_measure(scores, epsilon: float) -> Measure:
    """Steepest-gradient measure: the feasible weighting maximizing score mass.

    Puts the cap eps on the floor(1/eps) best-scored points and the residual
    1 - eps * floor(1/eps) on the next one, ties broken by ascending index.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    _check_capacity(scores.shape[0], epsilon)
    return Measure(_greedy_linear_max(scores, float(epsilon), 1.0), epsilon)


def psg_measure(scores, epsilon: float, atoms) -> Measure:
    """Steepest-gradient measure with a positivity repair.

    If the plain measure yields a singular information matrix, blend an
    increasing fraction delta of the pool's uniform weighting until
    positivity is restored.
    """
    sg = sg_measure(scores, epsilon)
    aset = as_atom_set(atoms)
    uniform = np.full(len(aset), 1.0 / len(aset))
    for delta in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        wts = sg.weights if delta == 0.0 else (1.0 - delta) * sg.weights + delta * uniform
        if not is_singular(np.linalg.eigvalsh(aset.weighted_sum(wts))):
            return sg if delta == 0.0 else Measure(wts, epsilon)
    raise PositivityRepairFailed("no blend up to delta = 1e-2 produced a PD information matrix")


def project_capped_simplex(v, epsilon: float, mass: float) -> np.ndarray:
    """Euclidean projection of v onto { 0 <= u <= eps, sum u = mass }.

    The projection is u_i = clip(v_i - lam, 0, eps), where the mass function
    g(lam) = sum_i clip(v_i - lam, 0, eps) is continuous, piecewise linear
    and non-increasing, with g = m * eps at min(v) - eps and g = 0 at max(v).
    lam is found in expected linear time by Newton steps on g inside that
    bracket, with a bisection step whenever Newton leaves the bracket or no
    coordinate is free (Wang & Lu 2015, arXiv:1503.01002).  Once two
    iterates share a linear piece, lam is solved exactly on it,
    lam = (sum_free v + eps * #capped - mass) / #free, which in floating
    point is one common shift of the free u_i that puts the mass back.
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    epsilon = float(epsilon)
    mass = float(mass)
    cap = m * epsilon
    if mass < -MASS_TOL or mass > cap + max(MASS_TOL, 1e-12 * max(cap, 1.0)):
        raise InfeasibleMass(f"mass {mass!r} outside [0, {cap!r}]")
    if m == 0:
        return np.zeros(0)
    mass = min(max(mass, 0.0), cap)
    if mass == 0.0:
        return np.zeros(m)
    if mass == cap:
        return np.full(m, epsilon)

    lo, hi = float(v.min()) - epsilon, float(v.max())
    # exact when every coordinate ends up free
    lam = min(max((float(v.sum()) - mass) / m, lo), hi)
    pattern = None
    for _ in range(_PROJ_MAX_ITERS):
        shifted = v - lam
        capped = shifted >= epsilon
        free = (shifted > 0.0) & ~capped
        n_free = int(np.count_nonzero(free))
        n_cap = int(np.count_nonzero(capped))
        excess = epsilon * n_cap + float(shifted[free].sum()) - mass
        # lam only moves toward the root, so equal counts mean an equal set:
        # the last Newton step landed on the root of this linear piece
        if excess == 0.0 or (n_free, n_cap) == pattern:
            break
        pattern = (n_free, n_cap)
        if excess > 0.0:
            lo = lam
        else:
            hi = lam
        step = lam + excess / n_free if n_free else np.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            pattern = None
        if step == lam:
            break
        lam = step
    u = np.clip(v - lam, 0.0, epsilon)
    free = (u > 0.0) & (u < epsilon)
    n_free = int(np.count_nonzero(free))
    if n_free:
        # exact solve on the final piece, done on u: for free i, v_i - lam is
        # exact or nearly (Sterbenz), so the rounding of lam is a common shift
        u[free] += (mass - float(u.sum())) / n_free
        np.clip(u, 0.0, epsilon, out=u)
    return u


def _check_pinned(pinned, N: int) -> np.ndarray:
    """Pinned points as sorted distinct intp indices, empty when there are none.

    None pins nothing.  A boolean mask must have one entry per point.
    Indices must be integers in [0, N); a repeated index pins its point once.
    """
    pinned = np.atleast_1d(np.asarray([] if pinned is None else pinned))
    if pinned.dtype == bool:
        if pinned.shape != (N,):
            raise DimensionMismatch(f"pinned mask has shape {pinned.shape} for {N} points")
        pinned = np.flatnonzero(pinned)
    elif pinned.size == 0:
        return np.zeros(0, dtype=np.intp)
    elif pinned.ndim != 1 or pinned.dtype.kind not in "iu":
        raise DimensionMismatch(
            f"pinned must be a mask or a vector of integer indices, got {pinned.dtype} "
            f"with shape {pinned.shape}")
    elif pinned.min() < 0 or pinned.max() >= N:
        bad = pinned[(pinned < 0) | (pinned >= N)][0]
        raise DimensionMismatch(f"pinned index {bad} outside [0, {N})")
    # intp, so that joining them to other indices keeps an integer dtype
    return _sorted_unique(pinned).astype(np.intp, copy=False)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a vector, without the numpy.ma import np.unique makes."""
    a = np.sort(a)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def round_to_sample(w: Measure, n: int, scores, pinned=None) -> SampleSet:
    """The pinned points (a mask or indices), then the largest other weights
    up to n points; ties by larger score, then lower index."""
    weights = w.weights
    if not 0 < n <= weights.shape[0]:
        raise ValueError(f"cannot take {n} points from a pool of {weights.shape[0]}")
    pinned = _check_pinned(pinned, weights.shape[0])
    need = n - pinned.size
    if need < 0:
        raise ValueError(f"{pinned.size} pinned points exceed the budget n = {n}")
    scores = np.asarray(scores, dtype=float)
    if scores.shape != weights.shape:
        raise DimensionMismatch(f"scores of shape {scores.shape} for a pool of {weights.shape[0]}")
    neg = -weights
    neg[pinned] = np.inf
    # only points at or above the need-th largest weight can be taken
    cand = np.flatnonzero(neg <= np.partition(neg, need - 1)[need - 1])
    order = np.lexsort((cand, -scores[cand], neg[cand]))
    return SampleSet(np.concatenate([pinned, cand[order[:need]]]))


def measure_of_sample(sample: SampleSet, pool_size: int) -> Measure:
    """Uniform 1/n weighting on the sample, with epsilon = 1/n."""
    n = len(sample)
    if n == 0:
        raise ValueError("empty sample")
    if max(sample.indices) >= pool_size:
        raise ValueError("sample index outside the pool")
    w = np.zeros(pool_size)
    w[list(sample.indices)] = 1.0 / n
    return Measure(w, 1.0 / n)


def active_set_split(w: Measure, other: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Masks of points at the cap in both measures and at zero in both."""
    eps = w.epsilon
    at_cap = (np.abs(w.weights - eps) <= CAP_BAND) & (np.abs(other.weights - eps) <= CAP_BAND)
    at_zero = (w.weights <= ZERO_BAND) & (other.weights <= ZERO_BAND) & ~at_cap
    return at_cap, at_zero


@dataclass(frozen=True)
class TrichotomyReport:
    """Diagnostic for the optimality structure of a weighting.

    At an optimum there is a threshold c with: leverage < c implies weight 0,
    leverage > c implies weight eps, and interior weights sit exactly at c.
    """

    c_low: float
    c_high: float
    c_interior: float
    violations: tuple[int, ...]
    passed: bool


def trichotomy_check(w: Measure, leverages, tol: float) -> TrichotomyReport:
    """Check the zero / cap / interior leverage ordering within tol.

    c_low is the largest leverage among zero-weight points and c_high the
    smallest among capped points; interior points must share a common
    leverage level compatible with [c_low, c_high].
    """
    lev = np.asarray(leverages, dtype=float)
    eps = w.epsilon
    at_zero = w.weights <= ZERO_BAND
    at_cap = np.abs(w.weights - eps) <= CAP_BAND
    interior = ~(at_zero | at_cap)

    c_low = float(lev[at_zero].max()) if at_zero.any() else -np.inf
    c_high = float(lev[at_cap].min()) if at_cap.any() else np.inf

    bad = np.zeros(w.weights.shape[0], dtype=bool)
    if interior.any():
        c_mid = float(np.median(lev[interior]))
        bad |= interior & (np.abs(lev - c_mid) > tol)
        bad |= at_zero & (lev > c_mid + tol)
        bad |= at_cap & (lev < c_mid - tol)
    else:
        c_mid = float(np.clip(0.5 * (c_low + c_high), c_low, c_high)) if np.isfinite(c_low) or np.isfinite(c_high) else np.nan
        if c_low > c_high + tol:
            bad |= at_zero & (lev > c_high + tol)
            bad |= at_cap & (lev < c_low - tol)
    violations = tuple(int(i) for i in np.flatnonzero(bad))
    return TrichotomyReport(c_low, c_high, c_mid, violations, not violations)
