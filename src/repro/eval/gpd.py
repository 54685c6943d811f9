"""Maximum-likelihood fit of a Generalised Pareto tail, without scipy.

:func:`fit_gpd` is the GPD fit behind POT and SPOT (Siffer et al., KDD
2017).  It returns the ``(ξ, σ)`` that
``scipy.stats.genpareto.fit(data, floc=0.0)`` returns on scipy 1.17.1, bit
for bit, so that fitting, scoring and serving need not import
``scipy.stats`` (about 60 MB of resident memory and half a second of
start-up in every process).  It reproduces three pieces of scipy:

* the start, ``(ξ, σ) = (1.0, 1)``: what ``rv_continuous._fitstart`` gives
  genpareto for any finite data (with ξ = 1 the moment estimates are not
  finite, so the scale falls back to 1);
* the objective, ``rv_continuous._penalized_nnlf``: the negative
  log-likelihood of the points inside the support, plus ``100 log(max
  float)`` for each point outside it or with a non-finite log-density.
  The log-density is genpareto's ``-xlog1py(ξ + 1, ξ z) / ξ``, and
  ``xlog1py`` is evaluated as scipy's compiled one is: Cephes' ``log1p``
  over the C library's ``log``;
* the minimiser, ``scipy.optimize.fmin`` at its defaults: the Nelder–Mead
  simplex of ``_minimize_neldermead``, ported step for step.

``tests/eval/test_gpd.py`` checks the bits against the installed scipy.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

__all__ = ["GpdFitError", "fit_gpd"]


class GpdFitError(RuntimeError):
    """The fit ended outside the parameter range (scipy's ``FitError``)."""


# scipy's penalty per point outside the support: 100 log(max float).
_BAD_POINT_PENALTY = np.log(np.finfo(float).max)

# Cephes log1p: log(1 + x) = x - x²/2 + x³ P(x)/Q(x) for 1 + x within
# [1/√2, √2], with Q's leading coefficient 1 left out.
_SQRT1_2 = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)
_LOG1P_P = (4.5270000862445199635215E-5, 4.9854102823193375972212E-1,
            6.5787325942061044846969E0, 2.9911919328553073277375E1,
            6.0949667980987787057556E1, 5.7112963590585538103336E1,
            2.0039553499201281259648E1)
_LOG1P_Q = (1.5062909083469192043167E1, 8.3047565967967209469434E1,
            2.2176239823732856465394E2, 3.0909872225312059774938E2,
            2.1642788614495947685003E2, 6.0118660497603843919306E1)


def fit_gpd(data: np.ndarray) -> Tuple[float, float]:
    """``(ξ, σ)`` of the GPD with location 0 fitted to ``data``.

    Equal to ``genpareto.fit(data, floc=0.0)``'s shape and scale.  Raises
    ``ValueError`` on empty or non-finite data and :class:`GpdFitError`
    (a ``RuntimeError``) when the simplex ends outside the parameter
    range, as scipy does.
    """
    data = np.asarray(data, dtype=float).ravel()
    if data.size == 0:
        raise ValueError("cannot fit a GPD to no data")
    if not np.isfinite(data).all():
        raise ValueError("The data contains non-finite values.")
    with np.errstate(all="ignore"):
        shape, scale = _fmin(_penalized_nll, [1.0, 1.0], data)
    if not (np.isfinite(shape) and scale > 0):
        raise GpdFitError("Optimization converged to parameters that are "
                          "outside the range allowed by the distribution.")
    return float(shape), float(scale)


def _penalized_nll(theta: np.ndarray, data: np.ndarray) -> float:
    """scipy's ``genpareto._penalized_nnlf((ξ, 0.0, σ), data)``."""
    shape, scale = theta[0], theta[1]
    if not math.isfinite(shape) or scale <= 0:
        return np.inf
    z = (data - 0.0) / scale
    n_log_scale = len(z) * np.log(scale)
    upper = -1.0 / shape if shape < 0 else np.inf
    inside = (0.0 <= z) & (z <= upper)
    n_bad = z.size - np.count_nonzero(inside)
    # scipy's argsreduce keeps a one-point sample whole.
    if n_bad > 0 and z.size != 1:
        z = z[inside]
    if shape != 0:
        logpdf = -_xlog1py(shape + 1.0, shape * z) / shape
    else:
        logpdf = -z
    finite = np.isfinite(logpdf)
    n_infinite = finite.size - np.count_nonzero(finite)
    if n_infinite:
        logpdf = logpdf[finite]
        n_bad += n_infinite
    total = 0 + logpdf.sum()
    return -total + n_bad * _BAD_POINT_PENALTY * 100 + n_log_scale


def _xlog1py(a: float, y: np.ndarray) -> np.ndarray:
    """``scipy.special.xlog1py(a, y)`` for a scalar ``a``."""
    if a == 0:
        return np.where(np.isnan(y), y, 0.0)
    return a * _log1p(y)


def _log1p(x: np.ndarray) -> np.ndarray:
    """Cephes' ``log1p``, bit for bit: the C library's ``log(1 + x)`` when
    ``1 + x`` is outside ``[1/√2, √2]``, its rational form inside."""
    z = 1.0 + x
    square = x * x
    # The rational form everywhere (it may overflow where it is not
    # kept), then the logs over it.
    result = x + (-0.5 * square + x * (
        square * _polevl(x, _LOG1P_P) / _p1evl(x, _LOG1P_Q)))
    far = (z < _SQRT1_2) | (z > _SQRT2)
    if far.any():
        result[far] = _log(z[far])
    return result


def _log(z: np.ndarray) -> np.ndarray:
    """The C library's ``log``, element by element.  NumPy's vectorised
    ``np.log`` differs from it by an ulp on some inputs; ``math.log`` calls
    it directly, but raises where the result is ``-inf`` or NaN."""
    values = z.tolist()
    try:
        return np.array(list(map(math.log, values)))
    except ValueError:
        return np.array([math.log(v) if v > 0 else
                         -math.inf if v == 0 else math.nan for v in values])


def _polevl(x: np.ndarray, coefficients) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the leading coefficient."""
    result = x * coefficients[0]
    result += coefficients[1]
    for coefficient in coefficients[2:]:
        result *= x
        result += coefficient
    return result


def _p1evl(x: np.ndarray, coefficients) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1."""
    result = x + coefficients[0]
    for coefficient in coefficients[1:]:
        result *= x
        result += coefficient
    return result


class _TooManyCalls(Exception):
    """fmin's ``_MaxFuncCallError``: the evaluation budget is spent."""


def _fmin(func: Callable[[np.ndarray, np.ndarray], float], x0,
          data: np.ndarray) -> np.ndarray:
    """``scipy.optimize.fmin(func, x0, args=(data,), disp=0)``: the
    Nelder–Mead simplex of ``_minimize_neldermead`` with fmin's defaults
    (xatol = fatol = 1e-4, at most 200 N iterations and evaluations, no
    bounds, no adaptation), step for step, so every vertex keeps its bits.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    xatol = fatol = 1e-4
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    vertices = [x0]
    for k in range(n):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        vertices.append(y)
    sim = np.stack(vertices)
    maxiter = maxfun = n * 200
    calls = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfun:
            raise _TooManyCalls
        calls += 1
        return func(np.copy(x), data)

    fsim = np.full((n + 1,), np.inf, dtype=float)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _TooManyCalls:
        pass
    finally:
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while calls < maxfun and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = evaluate(xr)
            doshrink = 0
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            elif fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:
                if fxr < fsim[-1]:
                    # Outside contraction.
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = evaluate(xc)
                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = 1
                else:
                    # Inside contraction.
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = evaluate(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = 1
                if doshrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = evaluate(sim[j])
            iterations += 1
        except _TooManyCalls:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0]
