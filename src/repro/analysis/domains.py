"""The abstract value domain of the dataflow analyzer.

An :class:`Interval` over-approximates every element of a tensor with a
closed interval ``[lo, hi]`` on the extended reals plus one finiteness
flag, ``may_nan``.  Sign information is subsumed by the interval itself
(``lo >= 0`` means provably non-negative) and possible-infinity is
subsumed by infinite bounds, so the "interval x finiteness x sign" domain
of the analyzer collapses into this single class.

Like :mod:`repro.analysis.spec` this is a *leaf* module: it imports only
NumPy so the op-metadata registry in :mod:`repro.nn.opinfo` can use it
without an import cycle.

All transfer helpers here are *sound* per-element over-approximations:
whenever a concrete execution can produce value ``v`` from inputs drawn
from the argument intervals, ``v`` lies in the result interval (or the
result's ``may_nan`` flag is set when ``v`` is NaN).  They are not always
*tight* — see DESIGN.md section 9 for the documented incompleteness.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Interval"]

_INF = math.inf


def _mul_bound(a: float, b: float) -> float:
    """IEEE-safe bound product: ``0 * inf`` counts as 0 (interval rule)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


class Interval:
    """Closed interval ``[lo, hi]`` plus a ``may_nan`` finiteness flag."""

    __slots__ = ("lo", "hi", "may_nan")

    def __init__(self, lo: float, hi: float, may_nan: bool = False):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            lo, hi, may_nan = -_INF, _INF, True
        if lo > hi:
            raise ValueError(f"malformed interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.may_nan = bool(may_nan)

    # -- constructors --------------------------------------------------
    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @classmethod
    def unbounded(cls, may_nan: bool = False) -> "Interval":
        return cls(-_INF, _INF, may_nan)

    @classmethod
    def from_data(cls, array) -> "Interval":
        """Envelope of a concrete array (used to seed constant leaves)."""
        array = np.asarray(array, dtype=float)
        if array.size == 0:
            return cls.point(0.0)
        may_nan = bool(np.isnan(array).any())
        finite = array[np.isfinite(array)]
        lo = float(finite.min()) if finite.size else 0.0
        hi = float(finite.max()) if finite.size else 0.0
        if np.isposinf(array).any():
            hi = _INF
        if np.isneginf(array).any():
            lo = -_INF
        return cls(lo, hi, may_nan)

    # -- predicates ----------------------------------------------------
    @property
    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def magnitude(self) -> float:
        """Largest absolute value the interval can reach."""
        return max(abs(self.lo), abs(self.hi))

    # -- lattice -------------------------------------------------------
    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi),
                        self.may_nan or other.may_nan)

    def widen_nan(self) -> "Interval":
        return Interval(self.lo, self.hi, True)

    # -- arithmetic transfer functions ---------------------------------
    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi,
                        self.may_nan or other.may_nan)

    def sub(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo,
                        self.may_nan or other.may_nan)

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.may_nan)

    def mul(self, other: "Interval") -> "Interval":
        products = (
            _mul_bound(self.lo, other.lo), _mul_bound(self.lo, other.hi),
            _mul_bound(self.hi, other.lo), _mul_bound(self.hi, other.hi),
        )
        return Interval(min(products), max(products),
                        self.may_nan or other.may_nan)

    def square(self) -> "Interval":
        """Tight transfer for ``x * x`` with *the same* x (non-negative)."""
        lo_sq, hi_sq = self.lo * self.lo, self.hi * self.hi
        lo = 0.0 if self.contains_zero else min(lo_sq, hi_sq)
        return Interval(lo, max(lo_sq, hi_sq), self.may_nan)

    def div(self, other: "Interval") -> "Interval":
        may_nan = self.may_nan or other.may_nan
        if other.contains_zero:
            # x/0 is +-inf, 0/0 is NaN; both inputs reaching 0 is possible
            # whenever the intervals allow it, so widen all the way.
            return Interval.unbounded(may_nan=True)
        reciprocals = (1.0 / other.lo, 1.0 / other.hi)
        inverse = Interval(min(reciprocals), max(reciprocals))
        product = self.mul(inverse)
        return Interval(product.lo, product.hi, may_nan)

    def scale(self, count_lo: int, count_hi: int | None = None) -> "Interval":
        """Sum of between ``count_lo`` and ``count_hi`` terms, each in self.

        ``[n*lo, n*hi]`` for a fixed term count; the hull over the extreme
        counts when the per-element count varies (transposed convolution).
        """
        count_hi = count_lo if count_hi is None else count_hi
        bounds = []
        for count in (count_lo, count_hi):
            bounds.append(_mul_bound(float(count), self.lo))
            bounds.append(_mul_bound(float(count), self.hi))
        if count_lo != count_hi and count_lo <= 0 <= count_hi:
            bounds.append(0.0)
        return Interval(min(bounds), max(bounds), self.may_nan)

    # -- elementwise transfer functions --------------------------------
    def exp(self) -> "Interval":
        # exp underflows to exactly 0.0 below ~-745 and overflows to inf
        # above ~709; both are modelled by the float bounds themselves.
        with np.errstate(over="ignore"):
            lo = float(np.exp(self.lo))
            hi = float(np.exp(self.hi))
        return Interval(lo, hi, self.may_nan)

    def log(self) -> "Interval":
        may_nan = self.may_nan or self.lo < 0.0
        lo = -_INF if self.lo <= 0.0 else float(np.log(self.lo))
        hi = -_INF if self.hi <= 0.0 else float(np.log(self.hi))
        return Interval(min(lo, hi), max(lo, hi), may_nan)

    def sqrt(self) -> "Interval":
        may_nan = self.may_nan or self.lo < 0.0
        lo = math.sqrt(max(self.lo, 0.0))
        hi = math.sqrt(max(self.hi, 0.0))
        return Interval(lo, hi, may_nan)

    def abs(self) -> "Interval":
        lo = 0.0 if self.contains_zero else min(abs(self.lo), abs(self.hi))
        return Interval(lo, self.magnitude(), self.may_nan)

    def tanh(self) -> "Interval":
        return Interval(math.tanh(self.lo), math.tanh(self.hi), self.may_nan)

    def sigmoid(self) -> "Interval":
        def _sig(x: float) -> float:
            if x >= 0:
                return 1.0 / (1.0 + math.exp(-min(x, 745.0)))
            return math.exp(max(x, -745.0)) / (1.0 + math.exp(max(x, -745.0)))
        return Interval(_sig(self.lo), _sig(self.hi), self.may_nan)

    def relu(self) -> "Interval":
        return Interval(max(self.lo, 0.0), max(self.hi, 0.0), self.may_nan)

    def clip(self, low: float, high: float) -> "Interval":
        lo = min(max(self.lo, low), high)
        hi = min(max(self.hi, low), high)
        return Interval(lo, hi, self.may_nan)

    def power(self, exponent: float) -> "Interval":
        """Transfer for ``x ** c`` with a Python-float exponent ``c``."""
        if exponent == 0.0:
            return Interval(1.0, 1.0, self.may_nan)
        is_integer = float(exponent).is_integer()
        if exponent < 0.0 and self.contains_zero:
            return Interval.unbounded(may_nan=True)
        if not is_integer and self.lo < 0.0:
            # numpy yields NaN for fractional powers of negatives.
            return Interval.unbounded(may_nan=True)
        with np.errstate(over="ignore", invalid="ignore"):
            candidates = [float(np.power(self.lo, exponent)),
                          float(np.power(self.hi, exponent))]
            if is_integer and int(exponent) % 2 == 0 and self.contains_zero:
                candidates.append(0.0)
        return Interval(min(candidates), max(candidates), self.may_nan)

    def odd_power(self, gamma: float) -> "Interval":
        """Sign-preserving power ``sign(x) * |x|**gamma`` (monotone)."""
        def _op(x: float) -> float:
            with np.errstate(over="ignore"):
                return float(np.sign(x) * np.abs(x) ** gamma)
        return Interval(_op(self.lo), _op(self.hi), self.may_nan)

    def odd_root(self, gamma: float) -> "Interval":
        return self.odd_power(1.0 / gamma)

    def maximum(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi),
                        self.may_nan or other.may_nan)

    def minimum(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi),
                        self.may_nan or other.may_nan)

    # -- display -------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lo == other.lo and self.hi == other.hi
                and self.may_nan == other.may_nan)

    def __repr__(self) -> str:
        flag = ", may_nan" if self.may_nan else ""
        return f"Interval[{self.lo:.6g}, {self.hi:.6g}{flag}]"
