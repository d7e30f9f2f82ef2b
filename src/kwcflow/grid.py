"""Cell-centered rectangular grids and discrete calculus with Neumann walls.

Scalar fields live at cell centers as plain ``numpy`` arrays of shape
``grid.shape``.  Vector fields come in two layouts:

* face layout (the primary one): a tuple with one array per axis, holding
  the normal component on the faces of that axis.  In 1D the tuple is
  ``(gx,)`` with ``gx.shape == (n + 1,)``; in 2D it is ``(gx, gy)`` with
  ``gx.shape == (nx + 1, ny)`` and ``gy.shape == (nx, ny + 1)``.
* cell layout: an array of shape ``(dim,) + grid.shape`` obtained by
  averaging the two adjacent faces per axis, used wherever the full
  gradient vector is needed pointwise (e.g. inside a nonlinear flux).

Homogeneous Neumann boundary conditions are realized by mirror ghost
cells, so every gradient has zero normal component on boundary faces and
the divergence enforces the matching zero-flux convention.  With the face
inner product weighted by the cell volume this makes ``div`` exactly the
negative adjoint of ``grad``, which the energy-dissipation checks in the
rest of the package rely on.

The solvers' sparse operators are built on first use and kept on the grid,
written directly in CSR form with the entries, and their order in each row,
of the sparse products that define them.  One cell-gradient stencil
(:attr:`Grid.cell_gradient_stencil`) gives the cell-gradient matrix and the
map that writes the Newton matrix's lower diagonals
(:attr:`Grid.newton_diagonals`), in 1D and 2D alike.  No transpose is kept: scipy's
CSC kernel on the gradient matrix's CSR arrays gives the bits of ``G.T @ x``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "all_finite",
    "Grid",
    "KeepLast",
    "build_grid",
    "save_field",
    "load_field",
    "cosine_field",
    "bump_field",
    "random_smooth_field",
]


def _along(axis: int, index) -> tuple:
    """Index that applies ``index`` on ``axis`` and keeps every other axis whole."""
    return (slice(None),) * axis + (index,)


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array ``a`` is finite.

    A NaN or an infinity makes the sum of squares NaN or infinite, so a finite sum
    decides at the cost of one dot product.  Finite entries whose squares overflow
    (``|a|`` past about 1e154) make it infinite too; the element-wise test then
    decides.  The decision is exact whatever the order of summation.  ``np.vdot``
    warns of no overflow, unlike ``@`` and ``np.dot``.
    """
    flat = a.ravel(order="K")          # a view of any contiguous array
    return (math.isfinite(np.vdot(flat, flat))
            or bool(np.logical_and.reduce(np.isfinite(flat), axis=None)))


class KeepLast:
    """One-entry memo: the value computed for the last key, returned again while
    the same key is asked for; another key replaces it.

    Keys hold the exact bytes of the array inputs, so a hit returns what a fresh
    evaluation would.  One entry bounds the memory kept to one result.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = (None, None)    # (key, value), replaced as one

    def get(self, key, compute, *args):
        """The value kept for ``key``, or ``compute(*args)``, kept in its place."""
        kept_key, value = self._entry
        if key != kept_key:
            value = compute(*args)
            self._entry = (key, value)
        return value


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on (0, L1) x ... with Neumann walls.

    Cell centers sit at ``(i + 1/2) * spacing``; at least 4 cells per axis
    are required so the boundary stencils never overlap.
    """

    dim: int
    cells: tuple[int, ...]
    extents: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if any(n != int(n) for n in self.cells):
            raise ValueError(f"cells must be whole numbers, got {self.cells}")
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        if len(self.cells) != self.dim or len(self.extents) != self.dim:
            raise ValueError("cells and extents must each have one entry per axis")
        if any(n < 4 for n in self.cells):
            raise ValueError(f"need at least 4 cells per axis, got {self.cells}")
        if any(L <= 0 for L in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")

    # -- geometry -----------------------------------------------------------
    # Cached: the grid is frozen and a step asks for its geometry many times.
    # The caches live in the instance dict, outside ``==`` and ``hash``.

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extents, self.cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @cached_property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``grid.shape``, one per axis."""
        axes = [self.centers(d) for d in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def constant(self, value: float) -> np.ndarray:
        return np.full(self.shape, float(value))

    # -- validation ---------------------------------------------------------

    def check_scalar(self, f: np.ndarray, name: str = "field") -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.shape:
            raise ValueError(f"{name}: expected shape {self.shape}, got {f.shape}")
        if not all_finite(f):
            raise ValueError(f"{name}: contains non-finite values")
        return f

    def face_shapes(self) -> tuple[tuple[int, ...], ...]:
        return self._face_shapes

    @cached_property
    def _face_shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.shape[:d] + (self.shape[d] + 1,) + self.shape[d + 1:]
                     for d in range(self.dim))

    def check_faces(self, F, name: str = "vector field"):
        if len(F) != self.dim:
            raise ValueError(f"{name}: expected {self.dim} components, got {len(F)}")
        out = []
        for d, (comp, shp) in enumerate(zip(F, self.face_shapes())):
            comp = np.asarray(comp, dtype=float)
            if comp.shape != shp:
                raise ValueError(f"{name}: axis-{d} faces must have shape {shp}, got {comp.shape}")
            if not all_finite(comp):
                raise ValueError(f"{name}: non-finite values on axis-{d} faces")
            out.append(comp)
        return tuple(out)

    # -- discrete calculus ----------------------------------------------------

    @cached_property
    def _stencil_index(self) -> tuple[tuple, ...]:
        """Per axis, the stencils' index tuples: interior faces, lower and upper
        neighbours, first and last entry.  Built once; a step uses them many times."""
        return tuple((_along(d, slice(1, n)), _along(d, slice(0, -1)), _along(d, slice(1, None)),
                      _along(d, 0), _along(d, -1)) for d, n in enumerate(self.cells))

    def grad(self, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """Face-valued gradient; boundary faces are exactly zero (mirror ghosts)."""
        return self._grad(self.check_scalar(f))

    def _grad(self, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """:meth:`grad` of a checked field."""
        comps = []
        for h, shape, (inner, lo, hi, _, _) in zip(self.spacing, self._face_shapes,
                                                   self._stencil_index):
            g = np.zeros(shape)
            interior = g[inner]
            np.subtract(f[hi], f[lo], out=interior)
            interior /= h
            comps.append(g)
        return tuple(comps)

    def div(self, F) -> np.ndarray:
        """Cell-valued divergence with the zero-flux convention on the walls.

        Boundary-face values of ``F`` are ignored (treated as zero), which
        makes ``div`` the exact negative adjoint of :meth:`grad`.
        """
        return self._div(self.check_faces(F))

    def _div(self, F) -> np.ndarray:
        """:meth:`div` of checked face components, which it only reads.  Per axis the
        interior faces are written to their lower cell and subtracted from their upper
        one, so a wall cell takes ``F[1] - 0.0`` or ``0.0 - F[-2]`` as with zeroed walls.
        Each axis adds the sum before it, the first one ``0.0``, which turns a -0.0 into
        +0.0 as a sum that starts from zero does."""
        out = 0.0
        for h, comp, (inner, lo, hi, _, _) in zip(self.spacing, F, self._stencil_index):
            d = np.zeros(self.shape)
            d[lo] = comp[inner]
            d[hi] -= comp[inner]
            d /= h
            d += out
            out = d
        return out

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Neumann Laplacian ``div(grad(f))``: symmetric, kills constants exactly."""
        return self._div(self.grad(f))

    def face_to_cell(self, F) -> np.ndarray:
        """Average face values back onto cells; shape ``(dim,) + grid.shape``."""
        return self._face_to_cell(self.check_faces(F))

    def _face_to_cell(self, F) -> np.ndarray:
        """:meth:`face_to_cell` of checked face components."""
        out = np.empty((self.dim,) + self.shape)
        for comp, cell, (_, lo, hi, _, _) in zip(F, out, self._stencil_index):
            np.add(comp[lo], comp[hi], out=cell)
            cell *= 0.5
        return out

    def cell_to_face(self, V: np.ndarray) -> tuple[np.ndarray, ...]:
        """Adjoint of :meth:`face_to_cell` (transpose averaging, cells to faces)."""
        V = np.asarray(V, dtype=float)
        if V.shape != (self.dim,) + self.shape:
            raise ValueError(f"expected cell-vector shape {(self.dim,) + self.shape}, got {V.shape}")
        return self._cell_to_face(V)

    def _cell_to_face(self, V: np.ndarray) -> tuple[np.ndarray, ...]:
        """:meth:`cell_to_face` of a float array of the cell-vector shape."""
        comps = []
        for v, shape, (inner, lo, hi, first, last) in zip(V, self._face_shapes,
                                                          self._stencil_index):
            g = np.empty(shape)
            np.add(v[lo], v[hi], out=g[inner])
            g[first] = v[first]
            g[last] = v[last]
            g *= 0.5
            comps.append(g)
        return tuple(comps)

    def grad_cell(self, f: np.ndarray) -> np.ndarray:
        """Cell-valued gradient: face gradient averaged back onto cells."""
        return self._face_to_cell(self.grad(f))

    # -- inner products and norms --------------------------------------------

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Discrete L2 pairing, cell-volume weighted; both fields must conform."""
        f, g = np.asarray(f), np.asarray(g)
        if f.shape != self.shape or g.shape != self.shape:
            raise ValueError(f"fields do not share this grid: {f.shape}, {g.shape} vs {self.shape}")
        return float(np.add.reduce(f * g, axis=None) * self.cell_volume)

    def inner_faces(self, F, G) -> float:
        """Face pairing with cell-volume weights (matches the adjoint identity)."""
        total = 0.0
        for d in range(self.dim):
            total += float(np.add.reduce(np.multiply(F[d], G[d]), axis=None))
        return total * self.cell_volume

    def norm_h(self, f: np.ndarray) -> float:
        f = np.asarray(f)
        if f.shape != self.shape:
            raise ValueError(f"fields do not share this grid: {f.shape} vs {self.shape}")
        return self._norm_h(f)

    def _norm_h(self, f: np.ndarray) -> float:
        """:meth:`norm_h` of an array of the grid's shape."""
        return math.sqrt(max(float(np.add.reduce(f * f, axis=None) * self.cell_volume), 0.0))

    def norm_v(self, f: np.ndarray) -> float:
        G = self.grad(f)
        return math.sqrt(max(self.inner(f, f) + self.inner_faces(G, G), 0.0))

    def norm_h2(self, f: np.ndarray) -> float:
        """H2 surrogate via the elliptic-regularity identity ``|-lap f + f|_H``."""
        return self.norm_h(-self.laplacian(f) + np.asarray(f, dtype=float))

    # -- sparse operator assembly (used by the elliptic solvers) --------------

    @cached_property
    def cell_gradient_stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell gradient's stencil ``(neighbours, weights)``: along axis d the gradient
        at cell c is ``weights[d, 0]*f[hi] + weights[d, 1]*f[lo]``, the average of its two
        face gradients, with ``hi, lo = neighbours[d, :, c]`` the cell's upper and lower
        neighbour (a cell on a wall stands in for the one missing across it) and weights
        ``(1/(2h), -1/(2h))``."""
        idx = np.arange(self.n_cells).reshape(self.shape)
        neighbours = np.empty((self.dim, 2) + self.shape, dtype=idx.dtype)
        for (upper, lower), (_, below, above, first, last) in zip(neighbours,
                                                                  self._stencil_index):
            upper[below] = idx[above]
            upper[last] = idx[last]
            lower[above] = idx[below]
            lower[first] = idx[first]
        weights = np.array([(0.5 * (1.0 / h), 0.5 * (-1.0 / h)) for h in self.spacing])
        return neighbours.reshape(self.dim, 2, self.n_cells), weights

    @cached_property
    def stiffness_matrix(self) -> sp.csr_matrix:
        """Positive-semidefinite matrix of ``-laplacian`` on flat cell vectors: per
        axis, ``-1/h^2`` for each neighbour of a cell and ``1/h^2`` on the diagonal for
        each of its interior faces; bit for bit the entries of ``sum_d G_d^T G_d``
        with ``G_d`` the face gradient along axis d."""
        neighbours, _ = self.cell_gradient_stencil
        n, dim = self.n_cells, self.dim
        own = np.arange(n)
        present = neighbours != own                # (dim, 2, n): upper, lower
        s = np.array([(1.0 / h) * (1.0 / h) for h in self.spacing])
        # per axis, 1/h^2 for each interior face of a cell (0 + x is x for x > 0)
        diag = sum(faces * h2 for faces, h2 in zip(present.sum(axis=1), s))
        entries = np.where(present, neighbours, -1)
        # columns in increasing order: the coarsest axis first below the diagonal
        cols = np.concatenate((entries[:, 1], own[None], entries[::-1, 0]))
        vals = np.empty(cols.shape)
        vals[:dim] = -s[:, None]
        vals[dim] = diag
        vals[dim + 1:] = -s[::-1, None]
        return _csr(cols.T, vals.T, n)

    @cached_property
    def cell_gradient_matrix(self) -> sp.csr_matrix:
        """Stacked cell-gradient matrix (dim * n_cells rows) of
        :attr:`cell_gradient_stencil`; entries are stored upper neighbour first."""
        neighbours, weights = self.cell_gradient_stencil
        return _csr(neighbours.transpose(0, 2, 1).reshape(-1, 2),
                    np.repeat(weights, self.n_cells, axis=0), self.n_cells)

    @cached_property
    def newton_diagonals(self) -> tuple[tuple[int, ...], sp.csr_matrix, np.ndarray]:
        """The lower diagonals of the Newton matrices ``G^T B G + c*K + diag(m)``, with
        ``G`` the cell-gradient matrix, ``K`` the stiffness matrix and ``B`` a block
        matrix of diagonal blocks, given as an array of shape ``(dim, dim, n_cells)``.

        Returns ``(offsets, coupling, stiffness)``.  ``offsets`` lists the diagonals'
        offsets, ascending from 0; in an array of shape ``(len(offsets), n_cells)`` row k
        holds ``A[j + offsets[k], j]`` at column j (zero past the matrix), which in 1D is
        LAPACK's lower band.  ``coupling @ B.ravel()`` is ``G^T B G`` in that layout
        flattened in Fortran order, and ``stiffness`` is ``K`` in it.  Cell c's stencil
        entries (d, i) and (e, j) give the term ``w[d, i]*w[e, j]*B[d, e, c]`` at
        ``(cols[d, i, c], cols[e, j, c])``; each entry adds its terms lower cell first."""
        n, dim = self.n_cells, self.dim
        cols, w = self.cell_gradient_stencil
        # the terms of the entries on and above the diagonal, each term's (d, i, e, j, c)
        # in C order; the symmetric matrix holds each at its mirror below the diagonal
        d, i, e, j, c = np.nonzero(cols[:, :, None, None, :] <= cols[None, None, :, :, :])
        row, column = cols[d, i, c], cols[e, j, c]
        source = (d * dim + e) * n + c
        weight = w[d, i] * w[e, j]
        # Each index array is dropped once read, which keeps the build's peak low.
        del d, i, e, j
        offset = column - row
        del column
        present = np.bincount(offset) > 0
        ascending = np.flatnonzero(present)
        rank = np.cumsum(present) - 1              # an offset's place in ascending
        slot = rank[offset] + ascending.size * row
        del offset, row
        # One entry per (slot, source): no two terms share both, so nothing is summed.
        order = np.lexsort((source, c, slot))
        indptr = np.zeros(ascending.size * n + 1, dtype=np.intp)
        np.cumsum(np.bincount(slot, minlength=ascending.size * n), out=indptr[1:])
        coupling = _csr_matrix(weight[order], source[order], indptr,
                               (ascending.size * n, dim * dim * n))
        offsets = tuple(int(o) for o in ascending)
        stiffness = np.zeros((len(offsets), n), order="F")
        for k, o in enumerate(offsets):
            stiffness[k, :n - o] = self.stiffness_matrix.diagonal(o)
        return offsets, coupling, stiffness


def _csr_matrix(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                shape: tuple[int, int]) -> sp.csr_matrix:
    """``sp.csr_matrix((data, indices, indptr), shape=shape)``, with the index arrays
    handed over as int32 when every index fits: the type the constructor picks then,
    which spares it the scan that would convert them."""
    if max(indices.size, *shape) < 2**31:
        indices, indptr = indices.astype(np.int32), indptr.astype(np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _csr(cols: np.ndarray, vals: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """CSR matrix with one row per row of the 2D arrays ``cols`` and ``vals``: row i
    holds the values ``vals[i, k]`` at columns ``cols[i, k] >= 0``, in that order
    (-1 pads a row)."""
    keep = cols >= 0
    indptr = np.zeros(cols.shape[0] + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return _csr_matrix(vals[keep], cols[keep], indptr, (cols.shape[0], n_cols))


def build_grid(dim: int, cells_per_axis, extents) -> Grid:
    """Construct and validate a :class:`Grid`."""
    return Grid(dim=int(dim), cells=tuple(cells_per_axis), extents=tuple(extents))


# -- field snapshot files ------------------------------------------------------


def save_field(path, grid: Grid, values: np.ndarray) -> None:
    """Write a field snapshot: one commented header line, then index,x[,y],value."""
    values = grid.check_scalar(values)
    cells = ",".join(str(n) for n in grid.cells)
    extents = ",".join(repr(L) for L in grid.extents)
    # the columns as Python floats, whose repr is exact
    columns = [c.ravel().tolist() for c in grid.meshgrid()] + [values.ravel().tolist()]
    row = "%d" + ",%r" * len(columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# grid dim={grid.dim} cells={cells} extents={extents}\n")
        fh.writelines(row % (i, *xs) for i, xs in enumerate(zip(*columns)))


def load_field(path) -> tuple[Grid, np.ndarray]:
    """Read a field snapshot written by :func:`save_field`; each cell's row must
    appear exactly once, with ``dim + 2`` columns and a finite value."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# grid"):
            raise ValueError(f"{path}: missing '# grid' header line")
        meta = {}
        for token in header[len("# grid"):].split():
            key, _, val = token.partition("=")
            meta[key] = val
        try:
            grid = Grid(dim=int(meta["dim"]), cells=tuple(int(s) for s in meta["cells"].split(",")),
                        extents=tuple(float(s) for s in meta["extents"].split(",")))
        except KeyError as exc:
            raise ValueError(f"{path}: header line has no {exc.args[0]}= entry") from None
        flat = np.empty(grid.n_cells)
        seen = np.zeros(grid.n_cells, dtype=bool)
        for row, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != grid.dim + 2:
                raise ValueError(f"{path}: line {row}: expected {grid.dim + 2} columns "
                                 f"(index, coordinates, value), got {len(parts)}")
            try:
                i, value = int(parts[0]), float(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {row}: {exc}") from None
            if not 0 <= i < grid.n_cells or seen[i]:
                raise ValueError(f"{path}: line {row}: cell index {i} is outside "
                                 f"[0, {grid.n_cells}) or repeats an earlier row")
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {row}: value {parts[-1]} is not finite")
            flat[i], seen[i] = value, True
        if not seen.all():
            raise ValueError(f"{path}: expected {grid.n_cells} rows, "
                             f"got {np.count_nonzero(seen)}")
    return grid, flat.reshape(grid.shape)


# -- field constructors --------------------------------------------------------


def cosine_field(grid: Grid, mean: float = 0.0, amplitude: float = 1.0, mode=1) -> np.ndarray:
    """Neumann-compatible cosine profile ``mean + amp * prod_d cos(k_d pi x_d / L_d)``."""
    modes = (mode,) * grid.dim if np.isscalar(mode) else tuple(mode)
    out = grid.constant(0.0) + 1.0
    for d, (x, L, k) in enumerate(zip(grid.meshgrid(), grid.extents, modes)):
        if k:
            out = out * np.cos(k * np.pi * x / L)
    return mean + amplitude * out


def bump_field(grid: Grid, center=0.5, width: float = 0.1, amplitude: float = 1.0,
               baseline: float = 0.0) -> np.ndarray:
    """Smooth Gaussian bump, handy as a localized perturbation."""
    centers = (center,) * grid.dim if np.isscalar(center) else tuple(center)
    r2 = grid.constant(0.0)
    for x, c in zip(grid.meshgrid(), centers):
        r2 = r2 + (x - c) ** 2
    return baseline + amplitude * np.exp(-r2 / (2.0 * width**2))


def random_smooth_field(grid: Grid, rng, mean: float = 0.0, amplitude: float = 1.0,
                        max_mode: int = 6) -> np.ndarray:
    """Seeded band-limited cosine series; smooth and Neumann-compatible.

    Coefficients decay like 1/k^2 so the profile stays resolved on coarse
    grids; ``rng`` is a ``numpy.random.Generator``.
    """
    out = grid.constant(0.0)
    coords = grid.meshgrid()
    for modes in itertools.product(range(max_mode + 1), repeat=grid.dim):
        if not any(modes):
            continue
        c = rng.uniform(-1.0, 1.0)
        waves = (np.cos(k * np.pi * x / L) for k, x, L in zip(modes, coords, grid.extents))
        out += (c / sum(k**2 for k in modes)) * math.prod(waves)
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 1.0 / peak
    return mean + amplitude * out
