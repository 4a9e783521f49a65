"""From interval relations to stable-birational classes of Hilbert schemes.

Each nonempty interval says: for every n it contains, Hilb^n and
Hilb^(n+d) are stably birational (for bundle powers past the threshold).
Closing these relations up to a horizon N partitions {0,...,N}; the
partition is eventually periodic and the period is constrained by the
index of the surface (gcd of its closed-point degrees). This module
does the closure: relation domains of one step are coalesced into
disjoint runs, so each point takes at most one union per distinct step,
and an array union-find whose roots are least members turns them into
labels. It extracts the (n0, period) certificate honestly (certified
only when the window is long enough to actually exhibit two full
periods), and wires up the per-surface-type pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import HorizonError, MethodInapplicableError, ValidationError
from .intervals import (
    IntInterval,
    blowup_interval,
    conic_interval,
    conic_twist_bound,
    equivalence_interval,
    merge_intervals,
)
from .surfaces import BrauerSeveriData, ConicBundleData, PolarizedSurface, catalog

__all__ = [
    "Relation",
    "ClassPartition",
    "IndexResult",
    "KodairaVerdict",
    "ConicPipelineResult",
    "index",
    "relations_from_intervals",
    "partition",
    "interval_class_partition",
    "del_pezzo_classes",
    "conic_pipeline",
    "conic_bundle_classes",
    "brauer_severi_classes",
    "kodaira_guard",
]


@dataclass(frozen=True)
class Relation:
    """One family of equivalences: n ~ n + step for every n in domain."""

    step: int
    domain: IntInterval

    def __post_init__(self):
        if self.step < 1:
            raise ValidationError("relation step must be >= 1", path="step")
        if self.domain.empty:
            raise ValidationError("relation domain must be nonempty", path="domain")


@dataclass(frozen=True)
class ClassPartition:
    """Partition of {0..horizon} with an eventual-periodicity certificate.

    labels[n] is the least member of n's class. certified means the
    window actually shows two full periods past n0 (horizon >= n0 +
    2*period); anything weaker is reported with certified=False rather
    than trusted.
    """

    horizon: int
    labels: tuple[int, ...]
    n0: int
    period: int
    certified: bool
    conditional: bool = True

    def __post_init__(self):
        if len(self.labels) != self.horizon + 1:
            raise ValidationError("labels must cover 0..horizon", path="labels")
        if self.period < 1:
            raise ValidationError("period must be >= 1", path="period")
        if self.certified and self.horizon < self.n0 + 2 * self.period:
            raise ValidationError(
                "certified partition needs horizon >= n0 + 2*period", path="certified"
            )

    def label_runs(self, limit: int | None = None) -> list[tuple[int, int, int]]:
        """Compress labels into maximal runs (start, end, label).

        With a limit only the first limit runs are built: the scan stops
        where the next run starts, so every returned run is complete, and
        more runs follow exactly when the last one ends before the horizon.
        """
        runs: list[tuple[int, int, int]] = []
        for n, lab in enumerate(self.labels):
            if runs and runs[-1][2] == lab:
                runs[-1] = (runs[-1][0], n, lab)
            elif len(runs) == limit:
                break
            else:
                runs.append((n, n, lab))
        return runs

    def eventual_labels(self) -> tuple[int, ...]:
        """Labels of one repeating window [n0, n0+period), clipped to the horizon."""
        stop = min(self.n0 + self.period, self.horizon + 1)
        return self.labels[self.n0 : stop]


@dataclass(frozen=True)
class IndexResult:
    """gcd of point degrees together with an explicit signed combination.

    combination is a tuple of (coefficient, degree) with nonzero
    coefficients summing to g; positive terms come first, so it reads
    directly as the two signed groups.
    """

    g: int
    combination: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        parts: list[str] = []
        for coeff, degree in self.combination:
            term = f"{abs(coeff)}*{degree}"
            if not parts:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {term}")
        return f"{self.g} = " + " ".join(parts)


class KodairaVerdict(NamedTuple):
    blocked: bool
    source: str | None
    message: str | None


class ConicPipelineResult(NamedTuple):
    partition: "ClassPartition"
    start_by_degree: dict[int, int]
    power_by_degree: dict[int, int]
    twist_floor_by_degree: dict[int, int]


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), a, b >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def index(point_degrees: Sequence[int]) -> IndexResult:
    """Index of the surface: gcd of closed-point degrees, with a witness.

    The witness combination is built by a left fold of the extended
    Euclidean algorithm over the degrees in given order (duplicates and
    degrees that do not lower the running gcd are skipped), each Bezout
    pair normalized to the symmetric residue. Deterministic, and the
    coefficients stay small.
    """
    degrees = list(point_degrees)
    if not degrees:
        raise ValidationError("at least one point degree is required", path="points")
    seen: list[int] = []
    for i, d in enumerate(degrees):
        if not isinstance(d, int) or isinstance(d, bool) or d <= 0:
            raise ValidationError("degrees must be positive integers", path=f"points[{i}]")
        if d not in seen:
            seen.append(d)
    g = seen[0]
    combo: dict[int, int] = {g: 1}
    for d in seen[1:]:
        if g % d == 0:
            # d alone realizes the new gcd
            g = d
            combo = {d: 1}
            continue
        new_g, x, y = _extgcd(g, d)
        if new_g == g:
            continue
        # normalize x to the symmetric residue mod d/new_g (ties go positive)
        q = d // new_g
        x %= q
        if 2 * x > q:
            x -= q
        y = (new_g - x * g) // d
        combo = {deg: c * x for deg, c in combo.items() if c * x != 0}
        combo[d] = combo.get(d, 0) + y
        combo = {deg: c for deg, c in combo.items() if c != 0}
        g = new_g
    ordered = sorted(combo.items(), key=lambda item: (item[1] < 0, item[0]))
    return IndexResult(g=g, combination=tuple((c, deg) for deg, c in ordered))


def relations_from_intervals(
    pairs: Iterable[tuple[IntInterval, int]]
) -> list[Relation]:
    """Package (interval, degree) pairs as relations, dropping empty intervals."""
    out: list[Relation] = []
    for interval, degree in pairs:
        if degree < 1:
            raise ValidationError("degree must be >= 1", path="d")
        if not interval.empty:
            out.append(Relation(step=degree, domain=interval))
    return out


def _divisors(n: int) -> list[int]:
    out = set()
    for i in range(1, int(math.isqrt(n)) + 1):
        if n % i == 0:
            out.add(i)
            out.add(n // i)
    return sorted(out)


def _stabilization_point(labels: Sequence[int], p: int, horizon: int) -> int:
    """Least n0 with labels[n] == labels[n+p] for all n in [n0, horizon-p]."""
    n0 = 0
    for n in range(horizon - p, -1, -1):
        if labels[n] != labels[n + p]:
            n0 = n + 1
            break
    return n0


def partition(relations: Sequence[Relation], horizon: int) -> ClassPartition:
    """Close the relations over {0..horizon} and certify eventual periodicity.

    Domains are clipped to the window [0, horizon - step] and merged per
    step (overlapping and adjacent runs join), so a point takes one union
    per distinct step however many relations of that step cover it. The
    result is conditional when any relation that applies inside the
    window is. Union-find links the larger root under the smaller, so
    each root is its class's least member and doubles as the label.

    Candidate periods are divisors of the gcd of all steps, plus
    divisors of the gcd of steps whose domains reach the horizon (a
    bounded stray relation must not hide the periodicity the cofinal
    ones produce). The smallest candidate whose stabilization point
    leaves room for two full periods wins; if none does, the gcd of all
    steps is reported uncertified.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1", path="horizon")
    if not relations:
        return ClassPartition(
            horizon=horizon,
            labels=tuple(range(horizon + 1)),
            n0=0,
            period=1,
            certified=False,
            conditional=False,
        )

    domains_by_step: dict[int, list[IntInterval]] = {}
    for rel in relations:
        lo = max(rel.domain.lo, 0)
        hi = min(rel.domain.hi, horizon - rel.step)
        if lo <= hi:
            domains_by_step.setdefault(rel.step, []).append(
                IntInterval(lo, hi, conditional=rel.domain.conditional)
            )
    if not domains_by_step:
        raise HorizonError(
            f"horizon {horizon} is too small to apply any of the {len(relations)} relation(s)"
        )

    # parent[n] <= n always holds: the larger root is linked under the
    # smaller and path halving only moves pointers further down, so every
    # root is the least member of its class.
    parent = list(range(horizon + 1))
    conditional = False
    for step, domains in domains_by_step.items():
        for run in merge_intervals(domains):
            conditional = conditional or run.conditional
            for n in range(run.lo, run.hi + 1):
                a, b = n, n + step
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
    # ascending: every m < n already holds its root and parent[n] <= n,
    # so one hop gives n its root, the least member of its class
    for n in range(horizon + 1):
        parent[n] = parent[parent[n]]
    labels_t = tuple(parent)

    g_all = math.gcd(*(rel.step for rel in relations))
    cofinal = [
        rel.step
        for rel in relations
        if min(rel.domain.hi, horizon - rel.step) == horizon - rel.step
        and max(rel.domain.lo, 0) <= horizon - rel.step
    ]
    candidates = set(_divisors(g_all))
    if cofinal:
        candidates.update(_divisors(math.gcd(*cofinal)))
    for p in sorted(candidates):
        n0 = _stabilization_point(labels_t, p, horizon)
        if horizon >= n0 + 2 * p:
            return ClassPartition(
                horizon=horizon,
                labels=labels_t,
                n0=n0,
                period=p,
                certified=True,
                conditional=conditional,
            )
    n0 = _stabilization_point(labels_t, g_all, horizon)
    return ClassPartition(
        horizon=horizon,
        labels=labels_t,
        n0=n0,
        period=g_all,
        certified=False,
        conditional=conditional,
    )


def _interval_relation_pairs(
    polarized: PolarizedSurface,
    e_min: int,
    horizon: int,
    d: int,
    d_prime: int | None,
) -> list[tuple[IntInterval, int]]:
    """All (interval, d) pairs whose lower end can still reach the horizon."""
    pairs: list[tuple[IntInterval, int]] = []
    shift = d_prime if d_prime is not None else 0
    e = e_min
    while True:
        plain = equivalence_interval(polarized, e, d)
        if plain.lo - shift > horizon:
            return pairs
        pairs.append((plain, d))
        if d_prime is not None:
            pairs.append((blowup_interval(polarized, e, d, d_prime), d))
        e += 1


def interval_class_partition(
    polarized: PolarizedSurface,
    e_min: int,
    horizon: int,
    d_prime: int | None = None,
) -> ClassPartition:
    """Generic pipeline: interval relations for every point degree, then close.

    Needs c1(L).K < 0 (else only finitely many intervals are nonempty)
    and c1_sq + c1(L).K <= 0 (else the gaps grow without bound and no
    eventual structure can be produced). In the fixed-width-gap regime
    blow-up fillers are added, with cycle degree d' defaulting to twice
    the largest point degree. A certified period must divide the index;
    a window certifying anything else is reported as a horizon problem.
    """
    if e_min < 1:
        raise ValidationError("e_min must be >= 1", path="e_min")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1", path="horizon")
    if polarized.c1_dot_K >= 0:
        raise MethodInapplicableError(
            "equivalence pipeline requires c1(L).K < 0; with c1(L).K >= 0 only "
            "finitely many powers give a nonempty range"
        )
    if polarized.c1_sq <= 0:
        raise MethodInapplicableError(
            "equivalence pipeline requires c1_sq > 0 (ample necessary condition)"
        )
    growth = polarized.c1_sq + polarized.c1_dot_K
    if growth > 0:
        raise MethodInapplicableError(
            "c1_sq + c1(L).K > 0: gaps between consecutive ranges grow without "
            "bound and cannot be filled"
        )
    degrees = polarized.surface.point_degrees
    if growth == 0 and d_prime is None:
        d_prime = 2 * max(degrees)
    pairs: list[tuple[IntInterval, int]] = []
    for d in degrees:
        pairs.extend(_interval_relation_pairs(polarized, e_min, horizon, d, d_prime))
    part = partition(relations_from_intervals(pairs), horizon)
    _check_period_against_index(part, index(degrees))
    return part


def _check_period_against_index(part: ClassPartition, idx: IndexResult) -> None:
    if part.certified and idx.g % part.period != 0:
        raise HorizonError(
            f"certified period {part.period} does not divide the index {idx.g}; "
            "the horizon shows a transient pattern, enlarge it"
        )


def del_pezzo_classes(
    degree: int,
    point_degrees: Sequence[int],
    e_min: int,
    horizon: int,
    d_prime: int | None = None,
) -> ClassPartition:
    """Stable-birational classes for a del Pezzo surface, anticanonically polarized.

    Here c1_sq + c1.K = 0 exactly, so gaps have fixed width and the
    blow-up fillers are always in play.
    """
    polarized = catalog("del_pezzo", (degree,), point_degrees=tuple(point_degrees))
    return interval_class_partition(polarized, e_min=e_min, horizon=horizon, d_prime=d_prime)


def conic_pipeline(
    conic: ConicBundleData,
    point_degrees: Sequence[int] | None = None,
    e_min: int = 1,
    horizon: int = 1000,
) -> ConicPipelineResult:
    """Relations from fiber-twisted intervals, stitched per degree.

    For each degree the power is fixed at e_min and the fiber twist b
    runs upward from the largest of: 0, the stitching bound, the least b
    with a nonempty range. From there consecutive intervals overlap or
    touch, so each degree contributes one unbroken run [start, horizon].
    """
    if e_min < 1:
        raise ValidationError("e_min must be >= 1", path="e_min")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1", path="horizon")
    if conic.c1_dot_K >= 0:
        bound = Fraction(conic.m * (conic.r - 8), 2 * conic.delta)
        raise MethodInapplicableError(
            f"conic pipeline requires a > m(r-8)/(2*delta) = {bound} "
            f"(equivalently c1(L).K < 0); got a = {conic.a}"
        )
    degrees = tuple(point_degrees) if point_degrees is not None else conic.point_degrees
    pairs: list[tuple[IntInterval, int]] = []
    starts: dict[int, int] = {}
    powers: dict[int, int] = {}
    floors: dict[int, int] = {}
    for d in degrees:
        if d < 1:
            raise ValidationError("degrees must be positive integers", path="points")
        e = e_min
        nonempty_b = math.ceil(
            Fraction(2 * d + 1 + e * conic.c1_dot_K, 2 * conic.delta)
        )
        b0 = max(0, conic_twist_bound(conic, e, d), nonempty_b)
        b = b0
        while True:
            iv = conic_interval(conic, e, b, d)
            if iv.lo > horizon:
                break
            if d not in starts:
                starts[d] = max(iv.lo, 0)
                powers[d] = e
                floors[d] = b0
            pairs.append((iv, d))
            b += 1
    part = partition(relations_from_intervals(pairs), horizon)
    _check_period_against_index(part, index(degrees))
    return ConicPipelineResult(
        partition=part,
        start_by_degree=starts,
        power_by_degree=powers,
        twist_floor_by_degree=floors,
    )


def conic_bundle_classes(
    conic: ConicBundleData,
    point_degrees: Sequence[int] | None = None,
    e_min: int = 1,
    horizon: int = 1000,
) -> ClassPartition:
    """Partition for a conic bundle; see conic_pipeline for the mechanics."""
    return conic_pipeline(conic, point_degrees, e_min, horizon).partition


def brauer_severi_classes(ind: int | BrauerSeveriData, horizon: int) -> ClassPartition:
    """Classes for a Brauer-Severi surface: n joins gcd(n, ind), unconditionally.

    This is a theorem for every n at once, not an asymptotic statement,
    so the partition is unconditional; 0 is kept as its own class (the
    pipelines never consume the n = 0 instance). gcd(n, ind) is itself
    the least member of its class, so it doubles as the canonical label.
    """
    if isinstance(ind, BrauerSeveriData):
        ind = ind.ind
    if ind not in (1, 3):
        raise ValidationError(
            "index of a Brauer-Severi surface must be 1 or 3", path="brauer_severi.ind"
        )
    if horizon < 0:
        raise ValidationError("horizon must be >= 0", path="horizon")
    labels = tuple([0] + [math.gcd(n, ind) for n in range(1, horizon + 1)])
    return ClassPartition(
        horizon=horizon,
        labels=labels,
        n0=1,
        period=ind,
        certified=horizon >= 1 + 2 * ind,
        conditional=False,
    )


def kodaira_guard(
    h0_omega_positive: bool, h0_omega_n_or_2n_positive: bool
) -> KodairaVerdict:
    """Refuse to generate equivalences on surfaces that provably have none.

    A global 2-form makes every Hilb^n non-stably-birational to all
    sufficiently late ones (Litt); nonnegative Kodaira dimension with a
    pluricanonical section pins Hilb^n ~ Hilb^n' to n = n' (Wood).
    """
    if h0_omega_positive:
        return KodairaVerdict(
            blocked=True,
            source="litt",
            message=(
                "h0(X, omega_X) > 0: each Hilb^n is stably birational to no "
                "Hilb^n' with n' large (Litt), so no eventual equivalences exist"
            ),
        )
    if h0_omega_n_or_2n_positive:
        return KodairaVerdict(
            blocked=True,
            source="wood",
            message=(
                "kappa(X) >= 0 with a pluricanonical section: Hilb^n is stably "
                "birational to Hilb^n' only for n = n' (Wood)"
            ),
        )
    return KodairaVerdict(blocked=False, source=None, message=None)
