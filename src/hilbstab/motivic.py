"""Grothendieck-ring bookkeeping for Hilbert scheme classes mod the affine line.

Classes live in a sparse polynomial ring over the integers with
commuting symbols: L (the affine line), x (the surface itself), s1,
s2, ... (its symmetric powers; s1 = x), and c<label> for the stable
birational class labels coming out of the partition engine. The
punctured-Hilbert-scheme stratification expresses [Hilb^n] through the
s_i and L; killing L leaves exactly the symmetric-power class, which is
all that stable birationality can see.

The series layer detects eventual periodicity of labeled coefficients
and certifies a closed rational form head + t^n0 * tail / (1 - t^p) by
checking the exact coefficientwise identity, never by trusting the
search.

Everything here is exact; in positive characteristic the mod-L
interpretation is not available (the comparison uses weak
factorization), which callers gate on before coming here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import HorizonError, PeriodicityError, ValidationError
from .equivalence import ClassPartition, _stabilization_point

__all__ = [
    "ClassPoly",
    "LabeledSeries",
    "RationalSeries",
    "partitions",
    "goettsche_class",
    "reduce_mod_L",
    "zeta_series",
    "rationalize",
    "verify_rational",
]

Monomial = tuple[tuple[str, int], ...]


def _symbol_key(symbol: str) -> tuple[int, int, str]:
    """Canonical variable order: L, x, s1, s2, ..., then class labels."""
    if symbol == "L":
        return (0, 0, "")
    if symbol == "x":
        return (1, 0, "")
    if len(symbol) > 1 and symbol[0] == "s" and symbol[1:].isdigit():
        return (2, int(symbol[1:]), "")
    if len(symbol) > 1 and symbol[0] == "c" and symbol[1:].isdigit():
        return (3, int(symbol[1:]), "")
    return (4, 0, symbol)


def _normalize(raw: dict[Monomial, int]) -> dict[Monomial, int]:
    return {mono: coeff for mono, coeff in raw.items() if coeff != 0}


class ClassPoly:
    """Sparse integer polynomial in commuting named symbols.

    Immutable by convention: every operation returns a new instance and
    zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self._terms = _normalize(terms or {})

    @classmethod
    def zero(cls) -> "ClassPoly":
        return cls()

    @classmethod
    def integer(cls, value: int) -> "ClassPoly":
        return cls({(): value})

    @classmethod
    def one(cls) -> "ClassPoly":
        return cls.integer(1)

    @classmethod
    def symbol(cls, name: str) -> "ClassPoly":
        if not name:
            raise ValidationError("symbol name must be nonempty", path="symbol")
        return cls({((name, 1),): 1})

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient_sum(self) -> int:
        """Value at every symbol set to 1."""
        return sum(self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = ClassPoly.integer(other)
        if not isinstance(other, ClassPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "ClassPoly | int") -> "ClassPoly":
        if isinstance(other, int):
            other = ClassPoly.integer(other)
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            merged[mono] = merged.get(mono, 0) + coeff
        return ClassPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> "ClassPoly":
        return ClassPoly({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: "ClassPoly | int") -> "ClassPoly":
        if isinstance(other, int):
            other = ClassPoly.integer(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "ClassPoly":
        return (-self) + other

    def __mul__(self, other: "ClassPoly | int") -> "ClassPoly":
        if isinstance(other, int):
            other = ClassPoly.integer(other)
        out: dict[Monomial, int] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                mono = _mono_mul(mono_a, mono_b)
                out[mono] = out.get(mono, 0) + coeff_a * coeff_b
        return ClassPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ClassPoly":
        if exponent < 0:
            raise ValidationError("negative powers are not defined", path="exponent")
        result = ClassPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        axes = sorted(
            {sym for mono in self._terms for sym, _ in mono}, key=_symbol_key
        )

        def order_key(item: tuple[Monomial, int]):
            mono, _ = item
            exps = dict(mono)
            return (
                sum(exps.values()),
                tuple(exps.get(sym, 0) for sym in axes),
            )

        pieces: list[str] = []
        for mono, coeff in sorted(self._terms.items(), key=order_key):
            body = _mono_str(mono)
            mag = abs(coeff)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"{'+' if coeff > 0 else '-'} {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"ClassPoly({self})"


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for sym, e in b:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted(exps.items(), key=lambda kv: _symbol_key(kv[0])))


def _mono_str(mono: Monomial) -> str:
    if not mono:
        return "1"
    # display heaviest symbols first: s before x before L, matching s2 + x*L
    factors = sorted(mono, key=lambda kv: _symbol_key(kv[0]), reverse=True)
    return "*".join(sym if e == 1 else f"{sym}^{e}" for sym, e in factors)


def reduce_mod_L(poly: ClassPoly) -> ClassPoly:
    """Image in the quotient by the affine-line class: set L = 0."""
    kept = {
        mono: coeff
        for mono, coeff in poly.items()
        if all(sym != "L" for sym, _ in mono)
    }
    return ClassPoly(kept)


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as multiplicity vectors (a_1, ..., a_n).

    a_i is the number of parts equal to i; the empty partition of 0 is
    the single empty tuple. Order is deterministic (largest first part
    first).
    """
    if n < 0:
        raise ValidationError("n must be >= 0", path="n")
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    counts = [0] * (n + 1)

    def descend(remaining: int, cap: int):
        if remaining == 0:
            out.append(tuple(counts[1 : n + 1]))
            return
        for part in range(min(remaining, cap), 0, -1):
            counts[part] += 1
            descend(remaining - part, part)
            counts[part] -= 1

    descend(n, n)
    return out


def _symmetric_power(m: int) -> ClassPoly:
    if m == 0:
        return ClassPoly.one()
    if m == 1:
        return ClassPoly.symbol("x")
    return ClassPoly.symbol(f"s{m}")


def goettsche_class(n: int) -> ClassPoly:
    """Class of Hilb^n of a surface x in terms of its symmetric powers and L.

    Sum over partitions of n: the stratum of cycle type alpha is the
    product of Sym^(a_i) over the part sizes i, times L^(n - |alpha|)
    where |alpha| is the number of parts.
    """
    total = ClassPoly.zero()
    for mult in partitions(n):
        parts = sum(mult)
        term = ClassPoly.one()
        for a in mult:
            if a:
                term = term * _symmetric_power(a)
        if n - parts:
            term = term * ClassPoly.symbol("L") ** (n - parts)
        total = total + term
    return total


@dataclass(frozen=True)
class LabeledSeries:
    """Power series whose coefficients are class polynomials.

    Index 0 is always the unit: the empty subscheme contributes the
    point class to the counting series.
    """

    coefficients: tuple[ClassPoly, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValidationError("series needs at least the constant term", path="coefficients")
        if self.coefficients[0] != ClassPoly.one():
            raise ValidationError("constant coefficient must be the unit", path="coefficients[0]")

    @property
    def horizon(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class RationalSeries:
    """Certified closed form head(t) + t^n0 * tail(t) / (1 - t^period).

    head has degree < n0, tail degree < period; expanding to any order
    within the certified window reproduces the source series exactly.
    """

    head: tuple[ClassPoly, ...]
    tail: tuple[ClassPoly, ...]

    def __post_init__(self):
        if not self.tail:
            raise ValidationError("tail must have at least one coefficient", path="tail")

    @property
    def n0(self) -> int:
        return len(self.head)

    @property
    def period(self) -> int:
        return len(self.tail)

    def coefficient(self, n: int) -> ClassPoly:
        if n < 0:
            raise ValidationError("order must be >= 0", path="n")
        if n < self.n0:
            return self.head[n]
        return self.tail[(n - self.n0) % self.period]

    def expand(self, order: int) -> list[ClassPoly]:
        return [self.coefficient(n) for n in range(order + 1)]

    def __str__(self) -> str:
        def poly_term(poly: ClassPoly, n: int) -> str:
            body = str(poly)
            if n == 0:
                return body
            t = "t" if n == 1 else f"t^{n}"
            if body == "1":
                return t
            if "+" in body or "-" in body:
                return f"({body})*{t}"
            return f"{body}*{t}"

        tail_terms = " + ".join(
            poly_term(poly, self.n0 + i) for i, poly in enumerate(self.tail)
        )
        rational = f"({tail_terms}) / (1 - t^{self.period})"
        if not self.head:
            return rational
        head_terms = " + ".join(poly_term(poly, i) for i, poly in enumerate(self.head))
        return f"{head_terms} + {rational}"


def zeta_series(
    classes: ClassPartition, horizon: int, allow_uncertified: bool = False
) -> LabeledSeries:
    """Counting series of stable-birational class labels, mod L.

    Coefficient of t^n is the symbol c<label(n)> for n >= 1 and the unit
    at n = 0. Demands a certified partition unless the caller explicitly
    accepts less.
    """
    if horizon < 0:
        raise ValidationError("horizon must be >= 0", path="horizon")
    if horizon > classes.horizon:
        raise HorizonError(
            f"series horizon {horizon} exceeds the partition horizon {classes.horizon}"
        )
    if not classes.certified and not allow_uncertified:
        raise HorizonError(
            "partition is not certified; pass allow_uncertified=True to proceed anyway"
        )
    labels = classes.labels[1 : horizon + 1]
    # ClassPoly is immutable, so every term with one label shares one symbol
    symbols = {lab: ClassPoly.symbol(f"c{lab}") for lab in set(labels)}
    return LabeledSeries(
        coefficients=(ClassPoly.one(), *map(symbols.__getitem__, labels))
    )


def rationalize(series: LabeledSeries) -> RationalSeries:
    """Smallest certified rational form of an eventually periodic series.

    Minimal period first, then minimal preperiod; a candidate counts
    only when the series exhibits two full periods past the preperiod
    (horizon >= n0 + 2*period). Raises with the best near-miss when
    nothing certifies.
    """
    coeffs = series.coefficients
    horizon = series.horizon
    # one small integer per distinct coefficient value, so the scans below
    # compare ints rather than ClassPoly objects; each distinct object is
    # hashed once, and equal polynomials that are distinct objects still
    # share a key
    distinct = dict(zip(map(id, coeffs), coeffs))
    keys: dict[ClassPoly, int] = {}
    key_of = {i: keys.setdefault(poly, len(keys)) for i, poly in distinct.items()}
    labels = list(map(key_of.__getitem__, map(id, coeffs)))
    best: tuple[int, int, int] | None = None  # (shortfall, period, n0)
    for p in range(1, max(horizon, 1) + 1):
        n0 = _stabilization_point(labels, p, horizon)
        if horizon >= n0 + 2 * p:
            return RationalSeries(head=coeffs[:n0], tail=coeffs[n0 : n0 + p])
        shortfall = n0 + 2 * p - horizon
        if best is None or (shortfall, p) < (best[0], best[1]):
            best = (shortfall, p, n0)
    assert best is not None
    raise PeriodicityError(
        f"no certified periodic tail within horizon {horizon}; best candidate "
        f"period {best[1]} stabilizing at {best[2]} would need horizon >= "
        f"{best[2] + 2 * best[1]}",
        n0=best[2],
        period=best[1],
    )


def verify_rational(
    rational: RationalSeries, series: LabeledSeries, order: int
) -> bool:
    """Certificate check: head*(1 - t^p) + t^n0*tail == series*(1 - t^p).

    The identity is checked up to the requested order, independently of
    the period search. Since 1 - t^p is a unit in the power-series ring,
    it holds mod t^(order+1) exactly when the series equals the expansion
    of the closed form up to that order, so both are compared term by
    term; no periodicity is assumed.
    """
    if order > series.horizon:
        raise HorizonError(
            f"verification order {order} exceeds the series horizon {series.horizon}"
        )
    periods = (order + 1) // rational.period + 1
    expected = tuple(rational.head) + tuple(rational.tail) * periods
    return tuple(series.coefficients[: order + 1]) == expected[: order + 1]
