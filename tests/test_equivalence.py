"""Closure of interval relations, certificates, and the per-type pipelines."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbstab import (
    BrauerSeveriData,
    ClassPartition,
    HorizonError,
    IntInterval,
    MethodInapplicableError,
    Relation,
    ValidationError,
    brauer_severi_classes,
    catalog,
    conic_bundle_classes,
    conic_pipeline,
    del_pezzo_classes,
    index,
    interval_class_partition,
    kodaira_guard,
    partition,
    relations_from_intervals,
)
from hilbstab.equivalence import _divisors, _stabilization_point


class TestIndex:
    def test_worked_examples(self):
        assert str(index([4, 6])) == "2 = 1*6 - 1*4"
        assert str(index([2, 3])) == "1 = 1*3 - 1*2"

    @pytest.mark.parametrize("d", [3, 5])
    def test_single_degree(self, d):
        res = index([d])
        assert res.g == d
        assert res.combination == ((1, d),)

    def test_duplicates_ignored(self):
        assert index([6, 6, 4, 4]).g == 2

    def test_divisor_shortcut(self):
        res = index([6, 3])
        assert res.g == 3
        assert res.combination == ((1, 3),)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            index([])

    def test_bad_degree_rejected(self):
        with pytest.raises(ValidationError):
            index([4, 0])

    @given(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=6))
    def test_combination_witnesses_gcd(self, degrees):
        res = index(degrees)
        assert res.g == math.gcd(*degrees)
        assert sum(c * d for c, d in res.combination) == res.g
        assert all(c != 0 for c, _ in res.combination)
        used = [d for _, d in res.combination]
        assert len(set(used)) == len(used)
        assert set(used) <= set(degrees)


class TestRelationPlumbing:
    def test_relation_validation(self):
        with pytest.raises(ValidationError):
            Relation(step=0, domain=IntInterval(1, 5))
        with pytest.raises(ValidationError):
            Relation(step=2, domain=IntInterval(5, 1))

    def test_relations_from_intervals_drops_empty(self):
        rels = relations_from_intervals(
            [(IntInterval(3, 7), 1), (IntInterval(9, 2), 1), (IntInterval(10, 12), 2)]
        )
        assert [(r.step, r.domain.lo, r.domain.hi) for r in rels] == [
            (1, 3, 7),
            (2, 10, 12),
        ]

    def test_bad_degree(self):
        with pytest.raises(ValidationError):
            relations_from_intervals([(IntInterval(1, 2), 0)])


class TestPartition:
    def test_single_chain(self):
        part = partition([Relation(1, IntInterval(5, 20))], horizon=20)
        assert part.labels[:6] == (0, 1, 2, 3, 4, 5)
        assert all(lab == 5 for lab in part.labels[5:])
        assert (part.n0, part.period, part.certified) == (5, 1, True)

    def test_two_steps_merge(self):
        part = partition(
            [Relation(2, IntInterval(10, 100)), Relation(3, IntInterval(15, 100))],
            horizon=100,
        )
        assert part.period == 1
        assert part.certified
        assert part.n0 <= 21
        tail = set(part.labels[part.n0 :])
        assert len(tail) == 1

    def test_no_relations_gives_singletons(self):
        part = partition([], horizon=8)
        assert part.labels == tuple(range(9))
        assert (part.n0, part.period, part.certified) == (0, 1, False)
        assert part.conditional is False

    def test_inapplicable_relations_raise(self):
        with pytest.raises(HorizonError):
            partition([Relation(5, IntInterval(50, 60))], horizon=10)

    def test_domain_clamped_to_horizon(self):
        part = partition([Relation(2, IntInterval(0, 10**9))], horizon=9)
        assert part.labels == (0, 1) * 5
        assert (part.n0, part.period, part.certified) == (0, 2, True)

    def test_bounded_stray_does_not_block_certificate(self):
        # a finite-domain step-2 relation plus a cofinal step-3 one:
        # the eventual pattern is 3-periodic and must still certify
        part = partition(
            [Relation(2, IntInterval(0, 4)), Relation(3, IntInterval(12, 200))],
            horizon=200,
        )
        assert (part.n0, part.period, part.certified) == (12, 3, True)
        assert part.labels[12:18] == (12, 13, 14, 12, 13, 14)
        assert part.labels[:7] == (0, 1, 0, 1, 0, 1, 0)

    def test_window_too_short_reports_uncertified(self):
        part = partition([Relation(1, IntInterval(5, 20))], horizon=6)
        assert not part.certified
        assert part.n0 == 5

    def test_conditional_flag_propagates(self):
        sure = Relation(1, IntInterval(0, 5, conditional=False))
        assert partition([sure], horizon=10).conditional is False
        hedged = Relation(1, IntInterval(0, 5, conditional=True))
        assert partition([hedged], horizon=10).conditional is True
        # hedged relations that miss the window [0, horizon - step] do not count
        missed = [Relation(1, IntInterval(10, 20)), Relation(3, IntInterval(-4, -1))]
        assert partition([sure, *missed], horizon=10).conditional is False

    def test_certified_needs_two_periods(self):
        with pytest.raises(ValidationError):
            ClassPartition(
                horizon=5, labels=(0, 1, 2, 3, 4, 5), n0=4, period=1, certified=True
            )

    def test_label_runs_and_eventual(self):
        part = partition([Relation(1, IntInterval(3, 10))], horizon=10)
        assert part.label_runs() == [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 10, 3)]
        # a limit keeps the first runs whole; the last one shows whether more follow
        assert part.label_runs(2) == [(0, 0, 0), (1, 1, 1)]
        assert part.label_runs(4) == part.label_runs(9) == part.label_runs()
        assert part.eventual_labels() == (3,)


@st.composite
def relation_sets(draw):
    horizon = draw(st.integers(min_value=12, max_value=80))
    count = draw(st.integers(min_value=1, max_value=4))
    rels = []
    for _ in range(count):
        step = draw(st.integers(min_value=1, max_value=6))
        lo = draw(st.integers(min_value=0, max_value=max(0, horizon - step - 1)))
        hi = draw(st.integers(min_value=lo, max_value=horizon - step))
        rels.append(Relation(step, IntInterval(lo, hi)))
    return rels, horizon


class TestPartitionProperties:
    @given(relation_sets())
    def test_labels_are_least_members(self, rels_horizon):
        rels, horizon = rels_horizon
        part = partition(rels, horizon)
        for n, lab in enumerate(part.labels):
            assert lab <= n
            assert part.labels[lab] == lab

    @given(relation_sets(), st.integers(min_value=1, max_value=6))
    def test_adding_a_relation_only_coarsens(self, rels_horizon, step):
        rels, horizon = rels_horizon
        base = partition(rels, horizon)
        extra = Relation(step, IntInterval(0, horizon - step))
        merged = partition(rels + [extra], horizon)
        blocks = {}
        for n in range(horizon + 1):
            blocks.setdefault(base.labels[n], set()).add(merged.labels[n])
        assert all(len(images) == 1 for images in blocks.values())

    @given(relation_sets())
    def test_certificate_is_valid_on_its_window(self, rels_horizon):
        rels, horizon = rels_horizon
        part = partition(rels, horizon)
        if part.certified:
            assert horizon >= part.n0 + 2 * part.period
            for n in range(part.n0, horizon - part.period + 1):
                assert part.labels[n] == part.labels[n + part.period]


class _SizeUnionFind:
    """Array union-find with path halving and union by size."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


def pointwise_partition(relations, horizon):
    """The earlier partition(), kept verbatim as the oracle.

    It runs one union per relation and point, links by size and labels
    each class by its first member.
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

    uf = _SizeUnionFind(horizon + 1)
    applied = False
    conditional = False
    for rel in relations:
        lo = max(rel.domain.lo, 0)
        hi = min(rel.domain.hi, horizon - rel.step)
        if lo > hi:
            continue
        applied = True
        conditional = conditional or rel.domain.conditional
        for n in range(lo, hi + 1):
            uf.union(n, n + rel.step)
    if not applied:
        raise HorizonError(
            f"horizon {horizon} is too small to apply any of the {len(relations)} relation(s)"
        )

    first_member: dict[int, int] = {}
    labels = []
    for n in range(horizon + 1):
        root = uf.find(n)
        if root not in first_member:
            first_member[root] = n
        labels.append(first_member[root])
    labels_t = tuple(labels)

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


@st.composite
def clustered_relation_sets(draw):
    """Several relations per step, as the conic pipeline emits them.

    Consecutive domains of one step overlap, touch (hi + 1 == lo) or sit
    one apart, and may stick out of the window [0, horizon - step] on
    either side; further relations miss the window entirely. Conditional
    flags are mixed throughout.
    """
    horizon = draw(st.integers(min_value=4, max_value=60))
    rels = []
    for step in draw(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3)):
        lo = draw(st.integers(min_value=-6, max_value=horizon))
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            hi = lo + draw(st.integers(min_value=0, max_value=12))
            rels.append(Relation(step, IntInterval(lo, hi, conditional=draw(st.booleans()))))
            lo = hi + draw(st.integers(min_value=-3, max_value=2))
    for step, above, flag in draw(
        st.lists(st.tuples(st.integers(1, 8), st.booleans(), st.booleans()), max_size=2)
    ):
        if above:
            outside = IntInterval(horizon - step + 1, horizon + 5, conditional=flag)
        else:
            outside = IntInterval(-5, -1, conditional=flag)
        rels.append(Relation(step, outside))
    return draw(st.permutations(rels)), horizon


class TestPartitionOracle:
    """partition() against the point-by-point closure it replaced."""

    @settings(max_examples=300)
    @given(clustered_relation_sets())
    def test_matches_pointwise_closure(self, rels_horizon):
        rels, horizon = rels_horizon
        try:
            expected = pointwise_partition(rels, horizon)
        except HorizonError as exc:
            with pytest.raises(HorizonError) as raised:
                partition(rels, horizon)
            assert str(raised.value) == str(exc)
            return
        assert partition(rels, horizon) == expected


class TestIntervalClassPartition:
    def test_del_pezzo_one(self):
        part = del_pezzo_classes(1, [1], e_min=1, horizon=2000)
        assert (part.n0, part.period, part.certified) == (22, 1, True)
        assert part.eventual_labels() == (22,)

    def test_del_pezzo_one_exact_runs(self):
        part = del_pezzo_classes(1, [1], e_min=1, horizon=2000)
        assert part.label_runs() == [
            (0, 0, 0),
            (1, 1, 1),
            (2, 2, 2),
            (3, 3, 3),
            (4, 5, 4),
            (6, 6, 6),
            (7, 9, 7),
            (10, 10, 10),
            (11, 14, 11),
            (15, 15, 15),
            (16, 21, 16),
            (22, 2000, 22),
        ]

    def test_del_pezzo_one_late_start(self):
        # starting the sweep at the fill threshold changes nothing eventual
        part = del_pezzo_classes(1, [1], e_min=7, horizon=2000)
        assert (part.n0, part.period, part.certified) == (22, 1, True)
        assert len(set(part.labels[22:])) == 1

    def test_del_pezzo_nine(self):
        part = del_pezzo_classes(9, [1], e_min=1, horizon=500)
        assert part.period == 1
        assert part.certified

    def test_del_pezzo_mixed_degrees(self):
        part = del_pezzo_classes(1, [2, 3], e_min=1, horizon=2000)
        assert part.period == 1
        assert part.certified

    def test_horizon_extension_is_stable(self):
        a = del_pezzo_classes(1, [1], e_min=1, horizon=2000)
        b = del_pezzo_classes(1, [1], e_min=1, horizon=2600)
        assert (a.n0, a.period) == (b.n0, b.period)
        assert b.labels[: a.horizon + 1] == a.labels

    def test_plane_overlap_regime(self):
        p2 = catalog("projective_plane")
        part = interval_class_partition(p2, e_min=3, horizon=500)
        assert (part.n0, part.period, part.certified) == (1, 1, True)
        assert part.labels[1:] == (1,) * 500

    def test_mixed_degrees_use_index(self):
        p2 = catalog("projective_plane", point_degrees=(2, 3))
        part = interval_class_partition(p2, e_min=3, horizon=800)
        assert part.certified
        assert part.period == 1

    def test_inapplicable_directions(self):
        from hilbstab import LineBundleClass, PolarizedSurface, SurfaceData

        nef = PolarizedSurface(
            SurfaceData(K_sq=0, h2=1), LineBundleClass(2, 0)
        )
        with pytest.raises(MethodInapplicableError):
            interval_class_partition(nef, e_min=1, horizon=100)
        growing = PolarizedSurface(
            SurfaceData(K_sq=0, h2=0), LineBundleClass(6, -2)
        )
        with pytest.raises(MethodInapplicableError):
            interval_class_partition(growing, e_min=1, horizon=100)
        flat = PolarizedSurface(
            SurfaceData(K_sq=0, h2=0), LineBundleClass(0, -2)
        )
        with pytest.raises(MethodInapplicableError):
            interval_class_partition(flat, e_min=1, horizon=100)


class TestConicPipeline:
    CONIC = catalog("conic_bundle", (9, 1, 1, 1))

    def test_degree_one_stitches_from_twelve(self):
        res = conic_pipeline(self.CONIC, [1], e_min=2, horizon=2000)
        assert res.start_by_degree == {1: 12}
        assert res.power_by_degree == {1: 2}
        assert res.twist_floor_by_degree == {1: 2}
        part = res.partition
        assert (part.n0, part.period, part.certified) == (12, 1, True)
        assert all(lab == 12 for lab in part.labels[12:])

    def test_degree_two_gives_period_two(self):
        res = conic_pipeline(self.CONIC, [2], e_min=1, horizon=300)
        assert res.start_by_degree == {2: 4}
        part = res.partition
        assert (part.n0, part.period, part.certified) == (4, 2, True)
        assert part.labels[4:10] == (4, 5, 4, 5, 4, 5)

    def test_classes_wrapper(self):
        part = conic_bundle_classes(self.CONIC, [1], e_min=2, horizon=400)
        assert part.period == 1

    def test_requires_negative_pairing(self):
        bad = catalog("conic_bundle", (9, 1, 1, -1))
        assert bad.c1_dot_K > 0
        with pytest.raises(MethodInapplicableError) as exc:
            conic_pipeline(bad, [1])
        assert "a >" in str(exc.value)


class TestBrauerSeveri:
    def test_index_three(self):
        part = brauer_severi_classes(3, horizon=10)
        assert part.labels == (0, 1, 1, 3, 1, 1, 3, 1, 1, 3, 1)
        assert (part.n0, part.period, part.certified) == (1, 3, True)
        assert part.conditional is False
        assert part.eventual_labels() == (1, 1, 3)

    def test_index_one(self):
        part = brauer_severi_classes(1, horizon=6)
        assert part.labels == (0, 1, 1, 1, 1, 1, 1)
        assert (part.n0, part.period, part.certified) == (1, 1, True)

    def test_zero_is_its_own_class(self):
        part = brauer_severi_classes(3, horizon=9)
        assert part.labels[0] == 0
        assert 0 not in part.labels[1:]

    def test_short_window_uncertified(self):
        assert not brauer_severi_classes(3, horizon=6).certified
        assert brauer_severi_classes(3, horizon=7).certified

    def test_accepts_data_object(self):
        part = brauer_severi_classes(BrauerSeveriData(ind=3), horizon=7)
        assert part.period == 3

    def test_bad_index(self):
        with pytest.raises(ValidationError):
            brauer_severi_classes(2, horizon=10)


class TestKodairaGuard:
    def test_two_form_blocks(self):
        verdict = kodaira_guard(True, False)
        assert verdict.blocked and verdict.source == "litt"

    def test_pluricanonical_blocks(self):
        verdict = kodaira_guard(False, True)
        assert verdict.blocked and verdict.source == "wood"

    def test_clear(self):
        verdict = kodaira_guard(False, False)
        assert not verdict.blocked
        assert verdict.source is None
