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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Grid",
    "KeepLast",
    "build_grid",
    "save_field",
    "load_field",
    "cosine_field",
    "constant_field",
    "bump_field",
    "random_smooth_field",
]


def _along(axis: int, index) -> tuple:
    """Index that applies ``index`` on ``axis`` and keeps every other axis whole."""
    return (slice(None),) * axis + (index,)


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
        if not np.isfinite(f).all():
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
            if not np.isfinite(comp).all():
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
        f = self.check_scalar(f)
        comps = []
        for h, shape, (inner, lo, hi, _, _) in zip(self.spacing, self._face_shapes,
                                                   self._stencil_index):
            g = np.zeros(shape)
            g[inner] = (f[hi] - f[lo]) / h
            comps.append(g)
        return tuple(comps)

    def div(self, F) -> np.ndarray:
        """Cell-valued divergence with the zero-flux convention on the walls.

        Boundary-face values of ``F`` are ignored (treated as zero), which
        makes ``div`` the exact negative adjoint of :meth:`grad`.
        """
        F = self.check_faces(F)
        out = np.zeros(self.shape)
        for h, comp, (_, lo, hi, first, last) in zip(self.spacing, F, self._stencil_index):
            comp = comp.copy()
            comp[first] = 0.0
            comp[last] = 0.0
            out += (comp[hi] - comp[lo]) / h
        return out

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Neumann Laplacian ``div(grad(f))``: symmetric, kills constants exactly."""
        return self.div(self.grad(f))

    def face_to_cell(self, F) -> np.ndarray:
        """Average face values back onto cells; shape ``(dim,) + grid.shape``."""
        F = self.check_faces(F)
        out = np.zeros((self.dim,) + self.shape)
        for d, (_, lo, hi, _, _) in enumerate(self._stencil_index):
            out[d] = 0.5 * (F[d][lo] + F[d][hi])
        return out

    def cell_to_face(self, V: np.ndarray) -> tuple[np.ndarray, ...]:
        """Adjoint of :meth:`face_to_cell` (transpose averaging, cells to faces)."""
        V = np.asarray(V, dtype=float)
        if V.shape != (self.dim,) + self.shape:
            raise ValueError(f"expected cell-vector shape {(self.dim,) + self.shape}, got {V.shape}")
        comps = []
        for v, shape, (inner, lo, hi, first, last) in zip(V, self._face_shapes,
                                                          self._stencil_index):
            g = np.zeros(shape)
            g[inner] = 0.5 * (v[lo] + v[hi])
            g[first] = 0.5 * v[first]
            g[last] = 0.5 * v[last]
            comps.append(g)
        return tuple(comps)

    def grad_cell(self, f: np.ndarray) -> np.ndarray:
        """Cell-valued gradient: face gradient averaged back onto cells."""
        return self.face_to_cell(self.grad(f))

    # -- inner products and norms --------------------------------------------

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Discrete L2 pairing, cell-volume weighted; both fields must conform."""
        f, g = np.asarray(f), np.asarray(g)
        if f.shape != self.shape or g.shape != self.shape:
            raise ValueError(f"fields do not share this grid: {f.shape}, {g.shape} vs {self.shape}")
        return float((f * g).sum() * self.cell_volume)

    def inner_faces(self, F, G) -> float:
        """Face pairing with cell-volume weights (matches the adjoint identity)."""
        total = 0.0
        for d in range(self.dim):
            total += float((np.asarray(F[d]) * np.asarray(G[d])).sum())
        return total * self.cell_volume

    def norm_h(self, f: np.ndarray) -> float:
        return math.sqrt(max(self.inner(f, f), 0.0))

    def norm_v(self, f: np.ndarray) -> float:
        G = self.grad(f)
        return math.sqrt(max(self.inner(f, f) + self.inner_faces(G, G), 0.0))

    def norm_h2(self, f: np.ndarray) -> float:
        """H2 surrogate via the elliptic-regularity identity ``|-lap f + f|_H``."""
        return self.norm_h(-self.laplacian(f) + np.asarray(f, dtype=float))

    # -- sparse operator assembly (used by the elliptic solvers) --------------

    def _flat_index(self) -> np.ndarray:
        return np.arange(self.n_cells).reshape(self.shape)

    def _two_point_matrices(self, rows_are_faces: bool, weights) -> tuple[sp.csr_matrix, ...]:
        """Per axis, a matrix with two entries in each row: an interior face's
        lower and upper cells (``rows_are_faces``) or a cell's lower and upper
        faces, weighted by ``weights(h) = (w_lower, w_upper)``."""
        cell_idx = self._flat_index()
        mats = []
        for d, fshape in enumerate(self.face_shapes()):
            face_idx = np.arange(int(np.prod(fshape))).reshape(fshape)
            if rows_are_faces:
                rows, nbrs = face_idx[_along(d, slice(1, self.cells[d]))].ravel(), cell_idx
                shape = (face_idx.size, self.n_cells)
            else:
                rows, nbrs = cell_idx.ravel(), face_idx
                shape = (self.n_cells, face_idx.size)
            lo = nbrs[_along(d, slice(0, -1))].ravel()
            hi = nbrs[_along(d, slice(1, None))].ravel()
            w_lo, w_hi = weights(self.spacing[d])
            data = np.concatenate([np.full(rows.size, w_lo), np.full(rows.size, w_hi)])
            M = sp.coo_matrix((data, (np.concatenate([rows, rows]), np.concatenate([lo, hi]))),
                              shape=shape)
            mats.append(M.tocsr())
        return tuple(mats)

    @cached_property
    def gradient_matrices(self) -> tuple[sp.csr_matrix, ...]:
        """Per-axis face-gradient matrices acting on flat cell vectors."""
        return self._two_point_matrices(True, lambda h: (-1.0 / h, 1.0 / h))

    @cached_property
    def averaging_matrices(self) -> tuple[sp.csr_matrix, ...]:
        """Per-axis face-to-cell averaging matrices."""
        return self._two_point_matrices(False, lambda h: (0.5, 0.5))

    @cached_property
    def stiffness_matrix(self) -> sp.csr_matrix:
        """Positive-semidefinite matrix of ``-laplacian`` on flat cell vectors."""
        mats = self.gradient_matrices
        A = mats[0].T @ mats[0]
        for d in range(1, self.dim):
            A = A + mats[d].T @ mats[d]
        return A.tocsr()

    @cached_property
    def cell_gradient_matrix(self) -> sp.csr_matrix:
        """Stacked cell-gradient matrix (dim * n_cells rows)."""
        blocks = [A @ G for A, G in zip(self.averaging_matrices, self.gradient_matrices)]
        return sp.vstack(blocks).tocsr()

    @cached_property
    def cell_gradient_transpose(self) -> sp.csr_matrix:
        """``cell_gradient_matrix.T`` in CSR form: ``G.T @ x`` would build a CSC
        matrix on every call.  The product is bitwise the same (same summation order)."""
        return self.cell_gradient_matrix.T.tocsr()

    @cached_property
    def jacobian_pattern(self) -> "JacobianPattern":
        """Fixed sparsity pattern of ``G^T B G + K + I`` (see :class:`JacobianPattern`)."""
        n = self.n_cells
        # Each full-size temporary is deleted after its last use, which keeps
        # the peak of the build near the size of the pattern it returns.
        G = self.cell_gradient_matrix.tocoo()
        keep = G.data != 0.0
        comp, cell = np.divmod(G.row[keep].astype(np.int64), n)
        col = G.col[keep].astype(np.int64)
        val = G.data[keep]
        del G, keep
        # Pair every two gradient entries that sit in the same cell: slot[c] lists
        # the entries of cell c, padded with -1.
        order = np.argsort(cell, kind="stable")
        counts = np.bincount(cell, minlength=n)
        rank = np.arange(order.size) - (np.cumsum(counts) - counts)[cell[order]]
        slot = np.full((n, counts.max()), -1)
        slot[cell[order], rank] = order
        del order, rank
        p, q = np.broadcast_arrays(slot[:, :, None], slot[:, None, :])
        valid = (p >= 0) & (q >= 0)
        p, q = p[valid], q[valid]
        del slot, valid
        # Entry (col[p], col[q]) picks up val[p] * val[q] * B[comp[p], comp[q], cell].
        pair_keys = col[p] * n + col[q]
        source = (comp[p] * self.dim + comp[q]) * n + cell[p]
        weights = val[p] * val[q]
        del p, q, comp, cell, col, val

        K = self.stiffness_matrix.tocoo()
        K_keys = K.row.astype(np.int64) * n + K.col
        diag_keys = np.arange(n, dtype=np.int64) * (n + 1)
        keys = np.unique(np.concatenate([pair_keys, K_keys, diag_keys]))
        rows, indices = np.divmod(keys, n)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        bandwidth = int(np.max(indices - rows))
        del rows
        pair_slots = np.searchsorted(keys, pair_keys)
        del pair_keys
        coupling = sp.csr_matrix((weights, (pair_slots, source)),
                                 shape=(keys.size, self.dim * self.dim * n))
        del weights, pair_slots, source
        stiffness_data = np.zeros(keys.size)
        stiffness_data[np.searchsorted(keys, K_keys)] = K.data
        return JacobianPattern(
            shape=(n, n), indptr=indptr, indices=indices, coupling=coupling,
            stiffness_data=stiffness_data, diagonal=np.searchsorted(keys, diag_keys),
            bandwidth=bandwidth)


@dataclass(frozen=True)
class JacobianPattern:
    """Fixed CSR pattern for the matrices ``G^T B G + c*K + diag(m)``.

    ``G`` is the stacked cell-gradient matrix, ``K`` the stiffness matrix and
    ``B`` a block matrix of diagonal blocks, given as an array of shape
    ``(dim, dim, n_cells)``.  The data array of such a matrix is

        coupling @ B.ravel() + c * stiffness_data,  plus m at ``diagonal``,

    so a Newton iteration updates one data array instead of assembling.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    coupling: sp.csr_matrix          # sparse map from B.ravel() to data
    stiffness_data: np.ndarray       # K on this pattern
    diagonal: np.ndarray             # positions of the diagonal entries in data
    bandwidth: int

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    @cached_property
    def _band_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the entries on or above the diagonal in data and in the flat
        upper band form; built on first use, since only 1D theta solves use it."""
        n = self.shape[0]
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        upper = np.flatnonzero(self.indices >= rows)
        cols = self.indices[upper]
        return upper, (self.bandwidth + rows[upper] - cols) * n + cols

    def upper_band(self, data: np.ndarray) -> np.ndarray:
        """Upper band form ``ab[bandwidth + i - j, j] = a[i, j]`` (LAPACK layout)."""
        upper, band_slots = self._band_slots
        ab = np.zeros((self.bandwidth + 1) * self.shape[0])
        ab[band_slots] = data[upper]
        return ab.reshape(self.bandwidth + 1, self.shape[0])


def build_grid(dim: int, cells_per_axis, extents) -> Grid:
    """Construct and validate a :class:`Grid`."""
    return Grid(dim=int(dim), cells=tuple(cells_per_axis), extents=tuple(extents))


# -- field snapshot files ------------------------------------------------------


def save_field(path, grid: Grid, values: np.ndarray) -> None:
    """Write a field snapshot: one commented header line, then index,x[,y],value."""
    values = grid.check_scalar(values)
    cells = ",".join(str(n) for n in grid.cells)
    extents = ",".join(repr(L) for L in grid.extents)
    coords = grid.meshgrid()
    flat = values.ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# grid dim={grid.dim} cells={cells} extents={extents}\n")
        for i in range(grid.n_cells):
            xs = ",".join(repr(float(c.ravel()[i])) for c in coords)
            fh.write(f"{i},{xs},{float(flat[i])!r}\n")


def load_field(path) -> tuple[Grid, np.ndarray]:
    """Read a field snapshot written by :func:`save_field`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# grid"):
            raise ValueError(f"{path}: missing '# grid' header line")
        meta = {}
        for token in header[len("# grid"):].split():
            key, _, val = token.partition("=")
            meta[key] = val
        dim = int(meta["dim"])
        cells = tuple(int(s) for s in meta["cells"].split(","))
        extents = tuple(float(s) for s in meta["extents"].split(","))
        grid = Grid(dim=dim, cells=cells, extents=extents)
        flat = np.empty(grid.n_cells)
        seen = 0
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            i = int(parts[0])
            flat[i] = float(parts[-1])
            seen += 1
        if seen != grid.n_cells:
            raise ValueError(f"{path}: expected {grid.n_cells} rows, got {seen}")
    return grid, flat.reshape(grid.shape)


# -- field constructors --------------------------------------------------------


def constant_field(grid: Grid, value: float) -> np.ndarray:
    return grid.constant(value)


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
    if grid.dim == 1:
        for k in range(1, max_mode + 1):
            c = rng.uniform(-1.0, 1.0)
            out += (c / k**2) * np.cos(k * np.pi * coords[0] / grid.extents[0])
    else:
        for kx in range(0, max_mode + 1):
            for ky in range(0, max_mode + 1):
                if kx == 0 and ky == 0:
                    continue
                c = rng.uniform(-1.0, 1.0)
                decay = (kx**2 + ky**2)
                out += (c / decay) * (
                    np.cos(kx * np.pi * coords[0] / grid.extents[0])
                    * np.cos(ky * np.pi * coords[1] / grid.extents[1])
                )
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 1.0 / peak
    return mean + amplitude * out
