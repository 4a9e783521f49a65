"""Class polynomials, punctured-stratification classes, and series certificates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbstab import (
    ClassPoly,
    HorizonError,
    LabeledSeries,
    PeriodicityError,
    RationalSeries,
    ValidationError,
    brauer_severi_classes,
    goettsche_class,
    partitions,
    rationalize,
    reduce_mod_L,
    verify_rational,
    zeta_series,
)


def pentagonal_partition_counts(n_max: int) -> list[int]:
    """Euler's recurrence, an oracle independent of the enumerator."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


class TestClassPoly:
    def test_integer_and_zero(self):
        assert ClassPoly.zero().is_zero
        assert ClassPoly.integer(0).is_zero
        assert ClassPoly.integer(3) == 3
        assert str(ClassPoly.zero()) == "0"

    def test_arithmetic(self):
        x = ClassPoly.symbol("x")
        sq = (x + 1) ** 2
        assert sq == x * x + 2 * x + 1
        assert sq - sq == 0
        assert str(sq) == "1 + 2*x + x^2"

    def test_negative_coefficients_print(self):
        x = ClassPoly.symbol("x")
        assert str(x - 1) == "-1 + x"
        assert str(1 - x) == "1 - x"

    def test_pow_zero(self):
        assert ClassPoly.symbol("L") ** 0 == 1

    def test_negative_pow_rejected(self):
        with pytest.raises(ValidationError):
            ClassPoly.symbol("L") ** -1

    def test_empty_symbol_rejected(self):
        with pytest.raises(ValidationError):
            ClassPoly.symbol("")

    def test_hashable(self):
        a = ClassPoly.symbol("x") + 1
        b = 1 + ClassPoly.symbol("x")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_coefficient_sum(self):
        x = ClassPoly.symbol("x")
        L = ClassPoly.symbol("L")
        assert (x * L + 2 * x + 3).coefficient_sum() == 6

    def test_display_order_is_graded(self):
        # low total degree first, s-symbols shown before x before L
        poly = (
            ClassPoly.symbol("s2")
            + ClassPoly.symbol("x") * ClassPoly.symbol("L")
        )
        assert str(poly) == "s2 + x*L"


class TestPartitions:
    def test_counts_match_pentagonal_oracle(self):
        oracle = pentagonal_partition_counts(12)
        for n in range(13):
            assert len(partitions(n)) == oracle[n]

    def test_multiplicity_vectors_sum_to_n(self):
        for n in range(1, 10):
            for mult in partitions(n):
                assert len(mult) == n
                assert sum(i * a for i, a in enumerate(mult, start=1)) == n

    def test_zero_and_negative(self):
        assert partitions(0) == [()]
        with pytest.raises(ValidationError):
            partitions(-1)

    def test_deterministic_order(self):
        assert partitions(3) == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]


class TestGoettscheClass:
    def test_small_cases(self):
        assert goettsche_class(0) == 1
        assert str(goettsche_class(1)) == "x"
        assert str(goettsche_class(2)) == "s2 + x*L"
        assert str(goettsche_class(3)) == "s3 + x^2*L + x*L^2"
        assert (
            str(goettsche_class(4))
            == "s4 + s2*x*L + s2*L^2 + x^2*L^2 + x*L^3"
        )

    def test_coefficient_two_appears(self):
        # partitions 2+2+1 and 3+1+1 of 5 land on the same monomial
        hits = [
            coeff
            for mono, coeff in goettsche_class(5).items()
            if dict(mono) == {"L": 2, "x": 1, "s2": 1}
        ]
        assert hits == [2]

    def test_total_mass_is_partition_count(self):
        oracle = pentagonal_partition_counts(20)
        for n in range(21):
            assert goettsche_class(n).coefficient_sum() == oracle[n]

    def test_mod_L_leaves_symmetric_power(self):
        assert reduce_mod_L(goettsche_class(0)) == 1
        assert reduce_mod_L(goettsche_class(1)) == ClassPoly.symbol("x")
        for n in range(2, 21):
            assert reduce_mod_L(goettsche_class(n)) == ClassPoly.symbol(f"s{n}")

    def test_reduce_mod_L_drops_only_L(self):
        x = ClassPoly.symbol("x")
        L = ClassPoly.symbol("L")
        assert reduce_mod_L(x * L * L + x + 5) == x + 5


class TestLabeledSeries:
    def test_requires_unit_constant(self):
        with pytest.raises(ValidationError):
            LabeledSeries(coefficients=(ClassPoly.symbol("c1"),))
        with pytest.raises(ValidationError):
            LabeledSeries(coefficients=())

    def test_horizon(self):
        s = LabeledSeries((ClassPoly.one(), ClassPoly.symbol("c1")))
        assert s.horizon == 1


class TestZetaSeries:
    def test_brauer_severi_coefficients(self):
        part = brauer_severi_classes(3, horizon=7)
        series = zeta_series(part, 7)
        names = [str(c) for c in series.coefficients]
        assert names == ["1", "c1", "c1", "c3", "c1", "c1", "c3", "c1"]

    def test_horizon_zero(self):
        part = brauer_severi_classes(3, horizon=7)
        assert zeta_series(part, 0).coefficients == (ClassPoly.one(),)

    def test_horizon_beyond_partition(self):
        part = brauer_severi_classes(3, horizon=7)
        with pytest.raises(HorizonError):
            zeta_series(part, 8)

    def test_uncertified_needs_opt_in(self):
        part = brauer_severi_classes(3, horizon=6)
        assert not part.certified
        with pytest.raises(HorizonError):
            zeta_series(part, 6)
        series = zeta_series(part, 6, allow_uncertified=True)
        assert series.horizon == 6


class TestRationalize:
    def test_brauer_severi_closed_form(self):
        part = brauer_severi_classes(3, horizon=60)
        series = zeta_series(part, 60)
        rat = rationalize(series)
        assert (rat.n0, rat.period) == (1, 3)
        assert rat.head == (ClassPoly.one(),)
        assert rat.tail == (
            ClassPoly.symbol("c1"),
            ClassPoly.symbol("c1"),
            ClassPoly.symbol("c3"),
        )
        assert str(rat) == "1 + (c1*t + c1*t^2 + c3*t^3) / (1 - t^3)"
        assert verify_rational(rat, series, 60)

    def test_minimal_period_wins(self):
        a, b = ClassPoly.symbol("c1"), ClassPoly.symbol("c2")
        series = LabeledSeries((ClassPoly.one(),) + (a, a, b) * 4)
        rat = rationalize(series)
        assert rat.period == 3
        assert rat.n0 == 1

    def test_constant_tail(self):
        c = ClassPoly.symbol("c1")
        series = LabeledSeries((ClassPoly.one(),) + (c,) * 8)
        rat = rationalize(series)
        assert (rat.n0, rat.period) == (1, 1)
        assert str(rat) == "1 + (c1*t) / (1 - t^1)"

    def test_aperiodic_raises_with_best_candidate(self):
        one = ClassPoly.one()
        a, b = ClassPoly.symbol("c1"), ClassPoly.symbol("c2")
        series = LabeledSeries((one, a, b, a, a, b))
        with pytest.raises(PeriodicityError) as exc:
            rationalize(series)
        err = exc.value
        assert err.period is not None and err.period >= 1
        assert err.n0 is not None
        assert err.n0 + 2 * err.period > series.horizon

    def test_expand_round_trip(self):
        part = brauer_severi_classes(3, horizon=30)
        series = zeta_series(part, 30)
        rat = rationalize(series)
        assert tuple(rat.expand(30)) == series.coefficients

    @given(
        head=st.lists(st.integers(min_value=1, max_value=4), max_size=4),
        tail=st.lists(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=4
        ),
        reps=st.integers(min_value=3, max_value=5),
    )
    def test_round_trip_on_generated_series(self, head, tail, reps):
        labels = head + tail * reps
        coeffs = (ClassPoly.one(),) + tuple(
            ClassPoly.symbol(f"c{v}") for v in labels
        )
        series = LabeledSeries(coeffs)
        rat = rationalize(series)
        assert rat.period <= len(tail)
        assert tuple(rat.expand(series.horizon)) == coeffs
        assert verify_rational(rat, series, series.horizon)


def oracle_rationalize(series: LabeledSeries) -> RationalSeries:
    """The first rationalize: backward scans comparing ClassPoly values directly."""
    coeffs = series.coefficients
    horizon = series.horizon
    best = None
    for p in range(1, max(horizon, 1) + 1):
        n0 = 0
        for n in range(horizon - p, -1, -1):
            if coeffs[n] != coeffs[n + p]:
                n0 = n + 1
                break
        if horizon >= n0 + 2 * p:
            return RationalSeries(head=coeffs[:n0], tail=coeffs[n0 : n0 + p])
        shortfall = n0 + 2 * p - horizon
        if best is None or (shortfall, p) < (best[0], best[1]):
            best = (shortfall, p, n0)
    raise PeriodicityError(
        f"no certified periodic tail within horizon {horizon}; best candidate "
        f"period {best[1]} stabilizing at {best[2]} would need horizon >= "
        f"{best[2] + 2 * best[1]}",
        n0=best[2],
        period=best[1],
    )


def oracle_verify(rational: RationalSeries, series: LabeledSeries, order: int) -> bool:
    """The first verify_rational: every coefficient expanded by ClassPoly arithmetic."""
    p = rational.period
    n0 = rational.n0
    coeffs = series.coefficients
    for n in range(order + 1):
        lhs = ClassPoly.zero()
        if n < n0:
            lhs = lhs + rational.head[n]
        if n >= p and n - p < n0:
            lhs = lhs - rational.head[n - p]
        if n0 <= n < n0 + p:
            lhs = lhs + rational.tail[n - n0]
        rhs = coeffs[n]
        if n >= p:
            rhs = rhs - coeffs[n - p]
        if lhs != rhs:
            return False
    return True


_POOL = (
    ClassPoly.one(),
    ClassPoly.zero(),
    ClassPoly.symbol("c1"),
    ClassPoly.symbol("c2"),
    ClassPoly.symbol("c3"),
    ClassPoly.symbol("c1") + ClassPoly.symbol("L"),
    2 * ClassPoly.symbol("x") - ClassPoly.symbol("s2"),
)


def _copy(poly: ClassPoly) -> ClassPoly:
    """An equal ClassPoly that is a distinct object."""
    return ClassPoly(dict(poly.items()))


@st.composite
def coefficient_lists(draw, min_size=0, max_size=4):
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(_POOL) - 1), st.booleans()),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return [_copy(_POOL[i]) if fresh else _POOL[i] for i, fresh in picks]


@st.composite
def labeled_series(draw):
    if draw(st.booleans()):
        body = draw(coefficient_lists(max_size=24))
    else:
        head = draw(coefficient_lists())
        tail = draw(coefficient_lists(min_size=1))
        body = head + tail * draw(st.integers(min_value=2, max_value=5))
        fresh = draw(st.lists(st.booleans(), min_size=len(body), max_size=len(body)))
        body = [_copy(c) if f else c for c, f in zip(body, fresh)]
    return LabeledSeries((ClassPoly.one(), *body))


class TestSeriesOracle:
    """rationalize and verify_rational against the full ClassPoly expansion."""

    @given(series=labeled_series(), data=st.data())
    def test_matches_full_expansion(self, series, data):
        try:
            expected = oracle_rationalize(series)
        except PeriodicityError as exc:
            with pytest.raises(PeriodicityError) as got:
                rationalize(series)
            assert (str(got.value), got.value.n0, got.value.period) == (
                str(exc),
                exc.n0,
                exc.period,
            )
            forms = []
        else:
            rat = rationalize(series)
            assert (rat.head, rat.tail) == (expected.head, expected.tail)
            wrong = data.draw(st.sampled_from(_POOL))
            forms = [expected]
            if expected.head:
                i = data.draw(st.integers(0, expected.n0 - 1))
                head = expected.head[:i] + (wrong,) + expected.head[i + 1 :]
                forms.append(RationalSeries(head=head, tail=expected.tail))
            i = data.draw(st.integers(0, expected.period - 1))
            tail = expected.tail[:i] + (wrong,) + expected.tail[i + 1 :]
            forms.append(RationalSeries(head=expected.head, tail=tail))
        forms.append(
            RationalSeries(
                head=tuple(data.draw(coefficient_lists())),
                tail=tuple(data.draw(coefficient_lists(min_size=1))),
            )
        )
        for form in forms:
            order = data.draw(st.integers(0, series.horizon))
            for n in (order, series.horizon):
                assert verify_rational(form, series, n) == oracle_verify(form, series, n)

    def test_equal_coefficients_need_not_be_identical(self):
        c1 = ClassPoly.symbol("c1") + ClassPoly.symbol("L")
        series = LabeledSeries((ClassPoly.one(), *(_copy(c1) for _ in range(6))))
        rat = rationalize(series)
        assert (rat.n0, rat.period) == (1, 1)
        assert verify_rational(rat, series, 6)
        # a series that leaves the period only at its last term is still caught
        broken = LabeledSeries(series.coefficients[:-1] + (ClassPoly.symbol("c1"),))
        assert not verify_rational(rat, broken, 6)
        assert verify_rational(rat, broken, 5)


class TestVerifyRational:
    def test_detects_wrong_tail(self):
        part = brauer_severi_classes(3, horizon=20)
        series = zeta_series(part, 20)
        c1 = ClassPoly.symbol("c1")
        wrong = RationalSeries(head=(ClassPoly.one(),), tail=(c1, c1, c1))
        assert not verify_rational(wrong, series, 20)

    def test_detects_wrong_head(self):
        part = brauer_severi_classes(3, horizon=20)
        series = zeta_series(part, 20)
        good = rationalize(series)
        wrong = RationalSeries(head=(ClassPoly.symbol("c9"),), tail=good.tail)
        assert not verify_rational(wrong, series, 20)

    def test_order_beyond_horizon(self):
        part = brauer_severi_classes(3, horizon=10)
        series = zeta_series(part, 10)
        rat = rationalize(series)
        with pytest.raises(HorizonError):
            verify_rational(rat, series, 11)

    def test_tail_required(self):
        with pytest.raises(ValidationError):
            RationalSeries(head=(), tail=())
