"""Numpy kernels for cubic interpolation and composite quadrature.

- spline_slopes: node slopes of the not-a-knot cubic spline through sampled
  data.  This is the spline scipy's CubicSpline builds by default; FITPACK's
  bicubic fit with no smoothing (s = 0) is its tensor product.
- hermite: the piecewise cubic Hermite interpolant of node values and
  slopes, or its first or second derivative, at any points.  With the
  slopes of spline_slopes it is that spline.  It writes _CHUNK points at a
  time into its output, so long point sets need one chunk's temporaries.
- hermite_primitive: the integral of that interpolant from the first node
  to every node.
- simpson, cumulative_simpson: composite Simpson's rule on samples at
  increasing, possibly irregular abscissae, with the formulas of
  scipy.integrate.simpson and cumulative_simpson.

Callers: immersion (spline_slopes, hermite), invariant_ode (hermite for the
profile's dense output, simpson for delta(v0)) and deform (all five).

Each kernel sums in a fixed order with numpy's own reductions, never
through BLAS, so its bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spline_slopes",
    "hermite",
    "hermite_primitive",
    "simpson",
    "cumulative_simpson",
]

# points per pass of hermite; longer point sets are taken in chunks
_CHUNK = 8192


def spline_slopes(x, y) -> np.ndarray:
    """Slopes at the nodes x of the not-a-knot cubic spline through y.

    y holds the nodes on its first axis; each trailing column is a spline of
    its own, and all of them share one sweep.  Two nodes give the line
    through them and three the parabola (both not-a-knot conditions
    coincide there), as in scipy's CubicSpline.  From four nodes on, the
    tridiagonal system is solved by elimination without pivoting: after the
    first row every pivot stays positive and the rows in between are
    diagonally dominant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2 or y.shape[0] != n:
        raise ValueError("need at least two nodes, one per row of y")
    dx = np.diff(x)
    dxr = dx.reshape(-1, *(1,) * (y.ndim - 1))  # broadcasts against y
    slope = np.diff(y, axis=0) / dxr
    if n == 2:
        return np.concatenate([slope, slope])
    if n == 3:
        c = (slope[1] - slope[0]) / (x[2] - x[0])
        return np.stack([slope[0] - dx[0] * c, slope[0] + dx[0] * c,
                         slope[1] + dx[1] * c])
    # rows i: lower[i] m[i-1] + diag[i] m[i] + upper[i] m[i+1] = rhs[i]
    lower = [0.0, *dx[1:].tolist(), x[-1] - x[-3]]
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    upper = [x[2] - x[0], *dx[:-1].tolist(), 0.0]
    rhs = np.empty(y.shape)
    rhs[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    rhs[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0]
              + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    rhs[-1] = (dxr[-1] ** 2 * slope[-2]
               + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    # one spline: plain floats; several: row views of rhs, updated in place
    rows = rhs.tolist() if rhs.ndim == 1 else list(rhs)
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rows[i] -= w * rows[i - 1]
    rows[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        rows[i] -= upper[i] * rows[i + 1]
        rows[i] /= diag[i]
    return np.array(rows) if rhs.ndim == 1 else rhs


def hermite(xk, yk, mk, x, nu: int = 0) -> np.ndarray:
    """The cubic Hermite interpolant of values yk and slopes mk at the
    increasing nodes xk, or its nu-th derivative (nu = 1, 2), at x.

    Each point is taken in the interval [xk[i], xk[i+1]) that holds it, the
    last node in the last interval, and points beyond the ends extend the
    end cubics (less accurately the farther out, as the weights grow).  Trailing axes of yk and mk are separate curves; the result
    has the shape x.shape + yk.shape[1:].  The four Hermite basis weights
    depend on the point alone, so each curve costs four products.  Points
    are taken _CHUNK at a time, each chunk with the same arithmetic.
    """
    xk = np.asarray(xk, dtype=float)
    yk = np.asarray(yk, dtype=float)
    mk = np.asarray(mk, dtype=float)
    x = np.asarray(x, dtype=float)
    if nu not in (0, 1, 2):
        raise ValueError(f"derivative order {nu} is not 0, 1 or 2")
    curves = (...,) + (None,) * (yk.ndim - 1)
    out = np.empty(x.shape + yk.shape[1:])
    flat_x, flat_out = x.reshape(-1), out.reshape(x.size, *yk.shape[1:])
    for c in range(0, x.size, _CHUNK):
        xc, oc = flat_x[c:c + _CHUNK], flat_out[c:c + _CHUNK]
        i = np.clip(np.searchsorted(xk, xc, side="right") - 1, 0, xk.size - 2)
        h = xk[i + 1] - xk[i]
        t = (xc - xk[i]) / h
        if nu == 0:
            w = ((1 + 2 * t) * (1 - t) ** 2, t * t * (3 - 2 * t),
                 h * t * (1 - t) ** 2, h * t * t * (t - 1))
        elif nu == 1:
            w = (6 * t * (t - 1) / h, 6 * t * (1 - t) / h,
                 (1 - t) * (1 - 3 * t), t * (3 * t - 2))
        else:
            w = ((12 * t - 6) / h ** 2, (6 - 12 * t) / h ** 2,
                 (6 * t - 4) / h, (6 * t - 2) / h)
        term = np.empty_like(oc)
        terms = ((yk, i), (yk, i + 1), (mk, i), (mk, i + 1))
        for k, (data, j) in enumerate(terms):
            # gathered into preallocated buffers: no large temporaries
            np.take(data, j, axis=0, out=term if k else oc, mode="clip")
            if k:
                term *= w[k][curves]
                oc += term
            else:
                oc *= w[0][curves]
        del i, h, t, w, term, terms, j  # one chunk's temporaries at a time
    return out


def hermite_primitive(x, f, fp) -> np.ndarray:
    """int_{x[0]}^{x[k]} of the cubic Hermite interpolant of values f and
    slopes fp, for every k: trapezoid sums with each interval's end
    correction h^2 (fp[i] - fp[i+1]) / 12, which makes them exact for
    cubics."""
    x, f, fp = (np.asarray(a, dtype=float) for a in (x, f, fp))
    h = np.diff(x)
    parts = h / 2 * (f[:-1] + f[1:]) + h * h / 12 * (fp[:-1] - fp[1:])
    return np.concatenate([[0.0], np.cumsum(parts)])


def _simpson_pairs(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson over the interval pairs of an odd number of
    samples, with scipy's weights for unequal pair halves."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:-1:2] * (hsum * (hsum / hprod))
                        + y[2::2] * (2.0 - h0divh1))
    return float(np.sum(tmp))


def simpson(y, x) -> float:
    """int y dx from samples at increasing x, as scipy.integrate.simpson:
    parabolas through consecutive triples; an even number of samples ends
    with Cartwright's correction for the last interval (two samples: the
    trapezoid)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = y.size
    if n % 2:
        return _simpson_pairs(y, x)
    if n == 2:
        return float(0.5 * (x[1] - x[0]) * (y[1] + y[0]))
    h0, h1 = x[-2] - x[-3], x[-1] - x[-2]
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    return float(_simpson_pairs(y[:-1], x[:-1])
                 + (alpha * y[-1] + beta * y[-2] - eta * y[-3]))


def _half_interval_integrals(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Over each first interval of consecutive sample triples, the integral
    of the parabola through the triple (Cartwright, J. Math. Sci. Math.
    Educ. 12, 2017, eqn 8)."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


def cumulative_simpson(y, x) -> np.ndarray:
    """int_{x[0]}^{x[k]} y dx for every k, starting at 0, as
    scipy.integrate.cumulative_simpson(y, x=x, initial=0): each interval
    takes the parabola through it and its right neighbour's samples at
    even positions, its left neighbour's at odd ones and at the last.
    Needs at least three samples."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.size < 3:
        raise ValueError("cumulative Simpson needs at least three samples")
    dx = np.diff(x)
    forward = _half_interval_integrals(y, dx)
    backward = _half_interval_integrals(y[::-1], dx[::-1])[::-1]
    parts = np.empty(y.size - 1)
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    return np.concatenate([[0.0], np.cumsum(parts)])
