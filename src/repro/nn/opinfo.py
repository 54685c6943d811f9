"""Op metadata for static analysis: abstract transfer functions per op.

Every op recorded by :meth:`repro.nn.tensor.Tensor._from_op` has an entry
here mapping its op name to a *transfer function* over the
:class:`~repro.analysis.domains.Interval` domain.  A transfer function
receives an :class:`OpContext` (input intervals, static attributes, input
and output shapes) and returns the output interval, appending any
numerical-domain issues it detects to ``ctx.issues``.

This module is the contract between ``repro.nn`` and the analyzer in
``repro.analysis.dataflow``: new ops must either register a transfer here
or accept the sound-but-useless fallback (unbounded output, no checks).
It imports only the leaf module :mod:`repro.analysis.domains`, so there is
no ``nn`` -> ``analysis`` -> ``nn`` cycle.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.domains import Interval

__all__ = [
    "OpContext",
    "Rule",
    "DF_RULES",
    "OP_INFO",
    "transfer",
    "EXP_OVERFLOW_BOUND",
    "POWER_OVERFLOW_BOUND",
    "CANCELLATION_MAGNITUDE",
]

# Largest float64-safe argument of exp / result magnitude of a power.
EXP_OVERFLOW_BOUND = 709.0
POWER_OVERFLOW_BOUND = 1e300
# Two overlapping operands that can both exceed this magnitude make a
# subtraction a float64 catastrophic-cancellation hot spot.
CANCELLATION_MAGNITUDE = 1e8


class Rule(NamedTuple):
    name: str
    severity: str  # "error" | "warn"
    summary: str


DF_RULES: Dict[str, Rule] = {
    "DF201": Rule("log-of-nonpositive", "error",
                  "log applied to an interval containing values <= 0"),
    "DF202": Rule("sqrt-of-negative", "error",
                  "sqrt applied to an interval containing negative values"),
    "DF203": Rule("div-by-zero-interval", "error",
                  "division by an interval containing zero"),
    "DF204": Rule("exp-overflow", "warn",
                  "exp argument can exceed the float64 overflow bound"),
    "DF205": Rule("power-overflow", "warn",
                  "power result can exceed float64 range"),
    "DF206": Rule("fractional-power-of-negative", "error",
                  "non-integer power of an interval containing negatives"),
    "DF208": Rule("catastrophic-cancellation", "warn",
                  "subtraction of two overlapping large-magnitude intervals"),
}


class OpContext:
    """Everything a transfer function may consult about one graph op."""

    __slots__ = ("op", "ins", "attrs", "in_shapes", "out_shape",
                 "same_input", "issues")

    def __init__(self, op: str, ins: List[Interval], attrs: Optional[dict],
                 in_shapes: List[tuple], out_shape: tuple,
                 same_input: bool = False):
        self.op = op
        self.ins = ins
        self.attrs = attrs or {}
        self.in_shapes = in_shapes
        self.out_shape = out_shape
        # True when the op's two operands are the very same tensor object
        # (e.g. ``centered * centered``), enabling the tight square rule.
        self.same_input = same_input
        self.issues: List[Tuple[str, str]] = []

    def flag(self, code: str, message: str) -> None:
        self.issues.append((code, message))


def _shape_size(shape: tuple) -> int:
    size = 1
    for dim in shape:
        size *= int(dim)
    return size


# ----------------------------------------------------------------------
# Transfer functions
# ----------------------------------------------------------------------

def _t_add(ctx: OpContext) -> Interval:
    return ctx.ins[0].add(ctx.ins[1])


def _t_sub(ctx: OpContext) -> Interval:
    a, b = ctx.ins
    if ctx.same_input:
        return Interval.point(0.0)
    overlap = max(a.lo, b.lo) <= min(a.hi, b.hi)
    if (overlap and a.magnitude() >= CANCELLATION_MAGNITUDE
            and b.magnitude() >= CANCELLATION_MAGNITUDE):
        ctx.flag("DF208",
                 f"subtracting overlapping intervals {a} and {b}; relative "
                 "precision of the difference is unbounded in float64")
    return a.sub(b)


def _t_neg(ctx: OpContext) -> Interval:
    return ctx.ins[0].neg()


def _t_mul(ctx: OpContext) -> Interval:
    if ctx.same_input:
        return ctx.ins[0].square()
    return ctx.ins[0].mul(ctx.ins[1])


def _t_div(ctx: OpContext) -> Interval:
    if ctx.ins[1].contains_zero:
        ctx.flag("DF203", f"denominator interval {ctx.ins[1]} contains zero")
    if ctx.same_input:
        # x / x is 1 wherever defined (NaN only at 0).
        return Interval(1.0, 1.0, ctx.ins[0].contains_zero)
    return ctx.ins[0].div(ctx.ins[1])


def _t_pow(ctx: OpContext) -> Interval:
    base = ctx.ins[0]
    exponent = float(ctx.attrs.get("exponent", 1.0))
    if not float(exponent).is_integer() and base.lo < 0.0:
        ctx.flag("DF206",
                 f"x**{exponent} of interval {base} containing negatives "
                 "yields NaN")
    if exponent < 0.0 and base.contains_zero:
        ctx.flag("DF203",
                 f"x**{exponent} of interval {base} containing zero divides "
                 "by zero")
    result = base.power(exponent)
    if result.is_bounded and result.magnitude() > POWER_OVERFLOW_BOUND:
        ctx.flag("DF205",
                 f"x**{exponent} of interval {base} can reach magnitude "
                 f"{result.magnitude():.3g}")
    elif not result.is_bounded and base.is_bounded and exponent > 1.0:
        ctx.flag("DF205",
                 f"x**{exponent} of interval {base} overflows float64")
    return result


def _t_matmul(ctx: OpContext) -> Interval:
    inner = int(ctx.in_shapes[0][-1]) if ctx.in_shapes[0] else 1
    return ctx.ins[0].mul(ctx.ins[1]).scale(inner)


def _t_exp(ctx: OpContext) -> Interval:
    if ctx.ins[0].hi > EXP_OVERFLOW_BOUND:
        ctx.flag("DF204",
                 f"exp of interval {ctx.ins[0]} can exceed exp({EXP_OVERFLOW_BOUND:.0f}) "
                 "and overflow to inf")
    return ctx.ins[0].exp()


def _t_log(ctx: OpContext) -> Interval:
    if ctx.ins[0].lo <= 0.0:
        ctx.flag("DF201",
                 f"log of interval {ctx.ins[0]} containing non-positive "
                 "values yields -inf or NaN")
    return ctx.ins[0].log()


def _t_sqrt(ctx: OpContext) -> Interval:
    if ctx.ins[0].lo < 0.0:
        ctx.flag("DF202",
                 f"sqrt of interval {ctx.ins[0]} containing negative values "
                 "yields NaN")
    return ctx.ins[0].sqrt()


def _t_abs(ctx: OpContext) -> Interval:
    return ctx.ins[0].abs()


def _t_tanh(ctx: OpContext) -> Interval:
    return ctx.ins[0].tanh()


def _t_sigmoid(ctx: OpContext) -> Interval:
    return ctx.ins[0].sigmoid()


def _t_relu(ctx: OpContext) -> Interval:
    return ctx.ins[0].relu()


def _t_clip(ctx: OpContext) -> Interval:
    return ctx.ins[0].clip(float(ctx.attrs.get("low", -math.inf)),
                           float(ctx.attrs.get("high", math.inf)))


def _t_sum(ctx: OpContext) -> Interval:
    out_size = max(_shape_size(ctx.out_shape), 1)
    count = max(_shape_size(ctx.in_shapes[0]) // out_size, 1)
    return ctx.ins[0].scale(count)


def _t_identity(ctx: OpContext) -> Interval:
    return ctx.ins[0]


def _t_union(ctx: OpContext) -> Interval:
    result = ctx.ins[0]
    for operand in ctx.ins[1:]:
        result = result.union(operand)
    return result


def _t_where(ctx: OpContext) -> Interval:
    return ctx.ins[0].union(ctx.ins[1])


def _t_maximum(ctx: OpContext) -> Interval:
    return ctx.ins[0].maximum(ctx.ins[1])


def _t_minimum(ctx: OpContext) -> Interval:
    return ctx.ins[0].minimum(ctx.ins[1])


def _t_odd_power(ctx: OpContext) -> Interval:
    gamma = float(ctx.attrs.get("gamma", 1.0))
    result = ctx.ins[0].odd_power(gamma)
    if result.is_bounded and result.magnitude() > POWER_OVERFLOW_BOUND:
        ctx.flag("DF205",
                 f"odd_power(gamma={gamma}) of interval {ctx.ins[0]} can "
                 f"reach magnitude {result.magnitude():.3g}")
    elif not result.is_bounded and ctx.ins[0].is_bounded and gamma > 1.0:
        ctx.flag("DF205",
                 f"odd_power(gamma={gamma}) of interval {ctx.ins[0]} "
                 "overflows float64")
    return result


def _t_odd_root(ctx: OpContext) -> Interval:
    # Sign-preserving root: defined on all reals, no domain issue possible.
    return ctx.ins[0].odd_root(float(ctx.attrs.get("gamma", 1.0)))


def _t_pad1d(ctx: OpContext) -> Interval:
    if int(ctx.attrs.get("left", 0)) == 0 and int(ctx.attrs.get("right", 0)) == 0:
        return ctx.ins[0]
    return ctx.ins[0].union(Interval.point(float(ctx.attrs.get("value", 0.0))))


def _conv_product(ctx: OpContext) -> Interval:
    product = ctx.ins[0].mul(ctx.ins[1])
    bias = ctx.ins[2] if len(ctx.ins) > 2 else None
    return product, bias


def _t_conv1d(ctx: OpContext) -> Interval:
    product, bias = _conv_product(ctx)
    count = int(ctx.attrs.get("in_channels", 1)) * int(ctx.attrs.get("kernel", 1))
    result = product.scale(count)
    return result.add(bias) if bias is not None else result


def _t_conv_transpose1d(ctx: OpContext) -> Interval:
    product, bias = _conv_product(ctx)
    stride = max(int(ctx.attrs.get("stride", 1)), 1)
    kernel = int(ctx.attrs.get("kernel", 1))
    taps = int(math.ceil(kernel / stride))
    # Per output element the number of contributing (input, tap) pairs
    # varies with position, so take the hull over the extreme counts;
    # positions past the last input contribution receive zero terms.
    count_hi = int(ctx.attrs.get("in_channels", 1)) * taps
    result = product.scale(0, count_hi)
    return result.add(bias) if bias is not None else result


OP_INFO: Dict[str, Callable[[OpContext], Interval]] = {
    "add": _t_add,
    "sub": _t_sub,
    "neg": _t_neg,
    "mul": _t_mul,
    "div": _t_div,
    "pow": _t_pow,
    "matmul": _t_matmul,
    "exp": _t_exp,
    "log": _t_log,
    "sqrt": _t_sqrt,
    "abs": _t_abs,
    "tanh": _t_tanh,
    "sigmoid": _t_sigmoid,
    "relu": _t_relu,
    "clip": _t_clip,
    "sum": _t_sum,
    "max": _t_identity,
    "min": _t_identity,
    "reshape": _t_identity,
    "transpose": _t_identity,
    "getitem": _t_identity,
    "broadcast": _t_identity,
    "concat": _t_union,
    "stack": _t_union,
    "where": _t_where,
    "maximum": _t_maximum,
    "minimum": _t_minimum,
    "odd_power": _t_odd_power,
    "odd_root": _t_odd_root,
    "pad1d": _t_pad1d,
    "conv1d": _t_conv1d,
    "conv_transpose1d": _t_conv_transpose1d,
    "avg_pool1d": _t_identity,
    "max_pool1d": _t_identity,
}


def transfer(ctx: OpContext) -> Interval:
    """Apply the registered transfer for ``ctx.op``.

    Unknown ops fall back to an unbounded interval with no checks: sound,
    imprecise, and intentionally loud in ``repro analyze --json`` output
    (the node keeps its op name, so coverage gaps are visible).
    """
    fn = OP_INFO.get(ctx.op)
    if fn is None:
        return Interval.unbounded()
    return fn(ctx)
