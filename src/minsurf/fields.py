"""Grids, scalar/operator fields, finite differences, CSV serialization.

Conventions used everywhere in the package:

  * values[i, j] is the sample at node (x_i, y_j) with x_i = origin_x + i*hx,
    y_j = origin_y + j*hy ("ij" indexing, x = axis 0, y = axis 1);
  * the x direction is never periodic; the y direction is periodic iff
    spec.periodic_y, in which case y_j + ny*hy is identified with y_j;
  * derivative helpers return full-grid arrays, second-order accurate in the
    interior (central) and at non-periodic edges (one-sided);
  * one CSV codec serves ScalarField and ImmersionGrid: a "# " line with
    the grid as JSON (sorted keys), a line of column names starting x,y,
    then one row per node, j fastest, at 17 significant digits (float64
    round-trips exactly).  The reader checks the header's keys and JSON
    types, the names, the row count, and x and y against the header grid
    to 1e-6 of a grid step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "OperatorField",
    "diff1",
    "diff2",
    "laplacian",
]


# the Python types json.loads gives each JSON type of a grid header's values;
# matched exactly, since bool subclasses int
_JSON_TYPES = {"integer": (int,), "number": (int, float), "boolean": (bool,)}


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on a rectangle or flat cylinder."""

    nx: int
    ny: int
    hx: float
    hy: float
    origin: tuple[float, float] = (0.0, 0.0)
    periodic_y: bool = False

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3, got {self.nx} x {self.ny}")
        if not (self.hx > 0 and self.hy > 0):
            raise ValueError("grid spacings must be positive")
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        if not np.all(np.isfinite([self.hx, self.hy, *self.origin])):
            raise ValueError("grid spacings and origin must be finite")

    @classmethod
    def strip(cls, width: float, nx: int, ny: int,
              period: float = 1.0) -> "GridSpec":
        """The strip |x| <= width/2, nx nodes across, periodic in y with ny
        nodes over one period; the invariant profile's charts live here."""
        return cls(nx=nx, ny=ny, hx=width / (nx - 1), hy=period / ny,
                   origin=(-width / 2.0, 0.0), periodic_y=True)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def xs(self) -> np.ndarray:
        return self.origin[0] + self.hx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.origin[1] + self.hy * np.arange(self.ny)

    @property
    def period_y(self) -> float:
        """Circumference ny*hy; only meaningful when periodic_y."""
        return self.ny * self.hy

    def wrap_dy(self, dy):
        """Minimum-image y offset in [-period/2, period/2] on a cylinder;
        dy itself on a rectangle."""
        if not self.periodic_y:
            return dy
        p = self.period_y
        return (dy + p / 2) % p - p / 2

    def wrap_dj(self, dj):
        """Minimum-image j offset, in whole grid steps, in
        [-(ny//2), (ny-1)//2] on a cylinder; dj itself on a rectangle."""
        if not self.periodic_y:
            return dj
        return (dj + self.ny // 2) % self.ny - self.ny // 2

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Full coordinate arrays X, Y of shape (nx, ny)."""
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def interior_mask(self) -> np.ndarray:
        """True at nodes not subject to Dirichlet data / one-sided stencils."""
        m = np.ones(self.shape, dtype=bool)
        m[0, :] = False
        m[-1, :] = False
        if not self.periodic_y:
            m[:, 0] = False
            m[:, -1] = False
        return m

    def to_json_dict(self) -> dict:
        return {
            "nx": self.nx,
            "ny": self.ny,
            "hx": self.hx,
            "hy": self.hy,
            "origin": [self.origin[0], self.origin[1]],
            "periodic_y": self.periodic_y,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        """Inverse of to_json_dict, on what json.loads gives.  Every key is
        required and nothing is coerced: nx and ny are JSON integers, hx, hy
        and the two origin entries JSON numbers, periodic_y a JSON boolean.
        Anything else raises ValueError, so an edited header cannot load as
        another grid."""
        def typed(name, v, kind):
            if type(v) not in _JSON_TYPES[kind]:
                raise ValueError(f"{name} = {v!r} is not a JSON {kind}")
            return v

        origin = d["origin"]
        if not (isinstance(origin, list) and len(origin) == 2):
            raise ValueError(f"origin = {origin!r} is not a pair of numbers")
        return cls(
            nx=typed("nx", d["nx"], "integer"),
            ny=typed("ny", d["ny"], "integer"),
            hx=typed("hx", d["hx"], "number"),
            hy=typed("hy", d["hy"], "number"),
            origin=tuple(typed("origin", o, "number") for o in origin),
            periodic_y=typed("periodic_y", d["periodic_y"], "boolean"),
        )


def _as_grid_array(values, shape: tuple, name: str) -> np.ndarray:
    """Per-node values as a read-only C-ordered float64 array, checked for
    shape and finiteness.  Such an array that owns its data is kept (the
    flow kernels freeze their outputs for this); anything else is copied."""
    a = values
    if not (type(a) is np.ndarray and a.dtype == np.float64
            and a.flags.owndata and a.flags.c_contiguous
            and not a.flags.writeable):
        a = np.array(values, dtype=float, copy=True, order="C")
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, grid wants {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """Nodal samples of a scalar function on a grid."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = _as_grid_array(self.values, self.spec.shape, "values")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, spec: GridSpec, fn: Callable) -> "ScalarField":
        X, Y = spec.nodes()
        return cls(spec, np.broadcast_to(fn(X, Y), spec.shape))

    @classmethod
    def zeros(cls, spec: GridSpec) -> "ScalarField":
        return cls(spec, np.zeros(spec.shape))

    def sup(self, interior_only: bool = False) -> float:
        if interior_only:
            return float(np.max(np.abs(self.values[self.spec.interior_mask()])))
        return float(np.max(np.abs(self.values)))

    def to_csv(self, path) -> None:
        _write_grid_csv(path, self.spec, ["v"], [self.values])

    @classmethod
    def from_csv(cls, path) -> "ScalarField":
        spec, data = _read_grid_csv(path, ["v"])
        return cls(spec, data.reshape(spec.shape))


def _coerce(spec: GridSpec, other) -> np.ndarray | float:
    if isinstance(other, ScalarField):
        if other.spec != spec:
            raise ValueError("field grids differ")
        return other.values
    return other


@dataclass(frozen=True)
class OperatorField:
    """Field of real 2x2 matrices (endomorphisms in chart coordinates).

    Stored as one (nx, ny, 2, 2) array so pointwise products and inverses
    broadcast through numpy's stacked-matrix routines.
    """

    spec: GridSpec
    mat: np.ndarray = field(repr=False)

    __array_ufunc__ = None  # an array on the left of * defers to __rmul__

    def __post_init__(self):
        mat = _as_grid_array(self.mat, (*self.spec.shape, 2, 2), "operator field")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_components(cls, spec: GridSpec, a11, a12, a21, a22) -> "OperatorField":
        m = np.empty((spec.nx, spec.ny, 2, 2))
        m[..., 0, 0] = a11
        m[..., 0, 1] = a12
        m[..., 1, 0] = a21
        m[..., 1, 1] = a22
        return cls(spec, m)

    @classmethod
    def from_diag(cls, spec: GridSpec, d1, d2) -> "OperatorField":
        return cls.from_components(spec, d1, np.zeros(spec.shape), np.zeros(spec.shape), d2)

    @classmethod
    def identity(cls, spec: GridSpec) -> "OperatorField":
        one = np.ones(spec.shape)
        return cls.from_diag(spec, one, one)

    @property
    def a11(self) -> np.ndarray:
        return self.mat[..., 0, 0]

    @property
    def a12(self) -> np.ndarray:
        return self.mat[..., 0, 1]

    @property
    def a21(self) -> np.ndarray:
        return self.mat[..., 1, 0]

    @property
    def a22(self) -> np.ndarray:
        return self.mat[..., 1, 1]

    def det(self) -> np.ndarray:
        return self.a11 * self.a22 - self.a12 * self.a21

    def inverse(self) -> "OperatorField":
        d = self.det()
        if np.any(np.abs(d) < np.finfo(float).tiny):
            raise ZeroDivisionError("operator field is singular at some node")
        inv = np.empty_like(self.mat)
        inv[..., 0, 0] = self.a22
        inv[..., 0, 1] = -self.a12
        inv[..., 1, 0] = -self.a21
        inv[..., 1, 1] = self.a11
        return OperatorField(self.spec, inv / d[..., None, None])

    def _on_grid(self, other: "OperatorField") -> np.ndarray:
        if other.spec != self.spec:
            raise ValueError("operator grids differ")
        return other.mat

    def __matmul__(self, other: "OperatorField") -> "OperatorField":
        return OperatorField(self.spec, self.mat @ self._on_grid(other))

    def __add__(self, other: "OperatorField") -> "OperatorField":
        return OperatorField(self.spec, self.mat + self._on_grid(other))

    def __sub__(self, other: "OperatorField") -> "OperatorField":
        return OperatorField(self.spec, self.mat - self._on_grid(other))

    def __mul__(self, other) -> "OperatorField":
        # scalar, (nx, ny) array, or ScalarField on the same grid; broadcast
        # over matrix slots
        other = np.asarray(_coerce(self.spec, other), dtype=float)
        if other.ndim == 2:
            other = other[..., None, None]
        return OperatorField(self.spec, self.mat * other)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorField":
        return OperatorField(self.spec, -self.mat)

    def sup(self, interior_only: bool = False) -> float:
        """Max over nodes of the entrywise max-abs."""
        a = np.max(np.abs(self.mat), axis=(-1, -2))
        if interior_only:
            a = a[self.spec.interior_mask()]
        return float(np.max(a))


# ---------------------------------------------------------------------------
# finite differences


def diff1(values: np.ndarray, h: float, axis: int, periodic: bool = False) -> np.ndarray:
    """First derivative, O(h^2): central interior, one-sided non-periodic edges.

    The non-periodic stencil is np.gradient's (edge_order=2) with numpy's
    coefficients in numpy's order, so the values are bitwise its own; the
    interior is computed into the output without a full-size temporary.
    """
    if periodic:
        return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * h)
    out = np.empty(np.shape(values))
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    o[0] = -1.5 / h * v[0] + 2.0 / h * v[1] + -0.5 / h * v[2]
    o[-1] = 0.5 / h * v[-3] + -2.0 / h * v[-2] + 1.5 / h * v[-1]
    return out


def diff2(values: np.ndarray, h: float, axis: int, periodic: bool = False) -> np.ndarray:
    """Second derivative, O(h^2): 3-point interior, 4-point one-sided edges."""
    h2 = h * h
    if periodic:
        return (np.roll(values, -1, axis) - 2.0 * values + np.roll(values, 1, axis)) / h2
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    if v.shape[0] >= 4:
        o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    else:
        # nx = 3: fall back to the centered stencil evaluated off-center
        o[0] = (v[0] - 2.0 * v[1] + v[2]) / h2
        o[-1] = (v[-1] - 2.0 * v[-2] + v[-3]) / h2
    return out


def laplacian(f: ScalarField) -> ScalarField:
    s = f.spec
    lap = diff2(f.values, s.hx, axis=0) + diff2(f.values, s.hy, axis=1, periodic=s.periodic_y)
    return ScalarField(s, lap)


# ---------------------------------------------------------------------------
# CSV codec (format in the module docstring)

_CSV_CHUNK_ROWS = 4096  # rows formatted per write, bounding the text buffer
_CSV_XY_TOL = 1e-6  # allowed x/y offset from the header grid, in grid steps


def _write_rows(fh, names, blocks, axes=()) -> None:
    """Write a line of column names, then one row per sample.

    blocks are (rows, k) arrays side by side.  axes, if given, is the
    (xs, ys) of a grid the rows run through, j fastest: each row then starts
    with its node's x and y, each axis value formatted once.
    """
    k = sum(b.shape[1] for b in blocks)
    p = 1 if axes else 0  # one "%s" slot per row for its "x,y," text
    row = "%s" * p + ",".join(["%.17g"] * k) + "\n"
    if axes:
        xs_txt, ys_txt = (["%.17g," % v for v in a.tolist()] for a in axes)
        ny = len(ys_txt)
    fh.write(",".join(names) + "\n")
    for start in range(0, len(blocks[0]), _CSV_CHUNK_ROWS):
        chunk = np.hstack([b[start:start + _CSV_CHUNK_ROWS] for b in blocks])
        m = len(chunk)
        args = [None] * (m * (p + k))
        if axes:
            args[::p + k] = [xs_txt[r // ny] + ys_txt[r % ny]
                             for r in range(start, start + m)]
        for c in range(k):
            args[p + c::p + k] = chunk[:, c].tolist()
        fh.write((row * m) % tuple(args))


def _write_grid_csv(path, spec: GridSpec, names, blocks) -> None:
    """Grid CSV of per-node values; each block is (nx, ny) or (nx, ny, k)."""
    n = spec.nx * spec.ny
    blocks = [np.reshape(b, (n, -1)) for b in blocks]
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(spec.to_json_dict(), sort_keys=True) + "\n")
        _write_rows(fh, ["x", "y", *names], blocks, (spec.xs, spec.ys))


def _read_grid_csv(path, names) -> tuple[GridSpec, np.ndarray]:
    """Grid and the (nx*ny, len(names)) value columns of a grid CSV file."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ValueError(f"{path}: missing grid header line")
        try:
            spec = GridSpec.from_json_dict(json.loads(header[2:]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad grid header "
                             f"({type(exc).__name__}: {exc})") from exc
        got = fh.readline().strip().split(",")
        if got != ["x", "y", *names]:
            raise ValueError(f"{path}: unexpected columns {got}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    want = (spec.nx * spec.ny, 2 + len(names))
    if data.shape != want:
        raise ValueError(f"{path}: {data.shape[0]} rows of {data.shape[1]} "
                         f"columns, the header wants {want[0]} of {want[1]}")
    X, Y = spec.nodes()
    for k, (axis, nodes, h) in enumerate((("x", X, spec.hx), ("y", Y, spec.hy))):
        off_grid = ~(np.abs(data[:, k] - nodes.ravel()) <= _CSV_XY_TOL * h)
        if off_grid.any():
            row = int(np.argmax(off_grid))
            raise ValueError(f"{path}: data row {row + 1} has {axis} = "
                             f"{data[row, k]!r}, off the header grid")
    return spec, data[:, 2:]
