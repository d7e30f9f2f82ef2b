import hashlib
import math
import re
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec

from kwcflow import build_grid, load_field, save_field
from kwcflow.grid import Grid, all_finite, bump_field, cosine_field, random_smooth_field


@pytest.fixture(params=[1, 2], ids=["1d", "2d"])
def grid(request):
    if request.param == 1:
        return build_grid(1, [48], [1.0])
    return build_grid(2, [12, 9], [1.0, 1.5])


def test_build_grid_spacing():
    g = build_grid(1, [8], [1.0])
    assert g.spacing == (0.125,)
    g = build_grid(2, [4, 8], [1.0, 2.0])
    assert g.spacing == (0.25, 0.25)
    assert g.n_cells == 32
    assert g.cell_volume == pytest.approx(0.0625)


@pytest.mark.parametrize("bad", [
    dict(dim=3, cells_per_axis=[8, 8, 8], extents=[1, 1, 1]),
    dict(dim=0, cells_per_axis=[], extents=[]),
    dict(dim=1, cells_per_axis=[3], extents=[1.0]),
    dict(dim=1, cells_per_axis=[8], extents=[-1.0]),
    dict(dim=2, cells_per_axis=[8], extents=[1.0, 1.0]),
    pytest.param(dict(dim=1, cells_per_axis=[4.5], extents=[1.0]), id="fractional-1d"),
    pytest.param(dict(dim=2, cells_per_axis=[8, np.float64(9.25)], extents=[1.0, 1.0]),
                 id="fractional-2d"),
])
def test_build_grid_rejects(bad):
    with pytest.raises(ValueError):
        build_grid(bad["dim"], bad["cells_per_axis"], bad["extents"])


def test_build_grid_cell_counts_are_whole_numbers():
    # Python and numpy integers are counts; a fractional count is not truncated.
    for n in (8, np.int64(8), np.int32(8), 8.0):
        g = build_grid(1, [n], [1.0])
        assert g.cells == (8,) and type(g.cells[0]) is int
    with pytest.raises(ValueError, match="cells must be whole numbers"):
        build_grid(1, [4.5], [1.0])


def test_grad_of_constant_is_zero(grid):
    G = grid.grad(grid.constant(5.0))
    for comp in G:
        assert np.all(comp == 0.0)


def test_grad_linear_field_1d():
    g = build_grid(1, [32], [1.0])
    f = g.centers(0)
    gx = g.grad(f)[0]
    assert np.allclose(gx[1:-1], 1.0)
    assert gx[0] == 0.0 and gx[-1] == 0.0   # mirror ghosts kill the normal component


def test_grad_second_order_accuracy():
    # cosine profile is Neumann-compatible; cell-averaged gradient is O(h^2)
    errs = []
    for n in (64, 128):
        g = build_grid(1, [n], [1.0])
        x = g.centers(0)
        gc = g.grad_cell(np.cos(np.pi * x))[0]
        errs.append(np.max(np.abs(gc + np.pi * np.sin(np.pi * x))))
    assert errs[0] <= 2e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_div_constant_vector_field(grid):
    F = tuple(np.ones(s) for s in grid.face_shapes())
    d = grid.div(F)
    # boundary faces are zeroed, so only wall cells see the jump
    interior = d[tuple(slice(1, -1) for _ in range(grid.dim))]
    assert np.allclose(interior, 0.0)


def test_div_linear_1d():
    g = build_grid(1, [32], [1.0])
    faces = np.arange(33) * g.spacing[0]
    d = g.div((faces,))
    assert np.allclose(d[1:-1], 1.0)


def test_adjointness_random(grid):
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.standard_normal(grid.shape)
        F = tuple(rng.standard_normal(s) for s in grid.face_shapes())
        lhs = grid.inner_faces(F, grid.grad(w))
        rhs = -grid.inner(grid.div(F), w)
        scale = grid.norm_h(w) * max(np.max(np.abs(c)) for c in F) + 1.0
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_laplacian_equals_div_grad(grid):
    rng = np.random.default_rng(6)
    f = rng.standard_normal(grid.shape)
    assert np.array_equal(grid.laplacian(f), grid.div(grid.grad(f)))


def test_laplacian_symmetric_negative_semidefinite(grid):
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rng.standard_normal(grid.shape)
        h = rng.standard_normal(grid.shape)
        a = grid.inner(grid.laplacian(f), h)
        b = grid.inner(f, grid.laplacian(h))
        assert abs(a - b) <= 1e-12 * (grid.norm_h(f) * grid.norm_h(h) + 1.0)
        # discrete Green identity
        G = grid.grad(f)
        assert grid.inner(grid.laplacian(f), f) == pytest.approx(
            -grid.inner_faces(G, G), rel=1e-12, abs=1e-12)


def test_laplacian_annihilates_constants_exactly(grid):
    assert np.all(grid.laplacian(grid.constant(4.2)) == 0.0)
    # row sums of the operator matrix are zero
    ones = np.ones(grid.n_cells)
    assert np.max(np.abs(grid.stiffness_matrix @ ones)) == 0.0


def test_laplacian_cosine_eigenfunction_second_order():
    errs = []
    for n in (64, 128):
        g = build_grid(1, [n], [1.0])
        x = g.centers(0)
        f = np.cos(np.pi * x)
        errs.append(np.max(np.abs(g.laplacian(f) + np.pi**2 * f)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_norms(grid):
    one = grid.constant(1.0)
    vol = float(np.prod(grid.extents))
    assert grid.norm_h(one) == pytest.approx(np.sqrt(vol))
    # constants are in the Laplacian kernel: H2 surrogate collapses to |c|_H
    assert grid.norm_h2(grid.constant(-2.0)) == pytest.approx(2.0 * np.sqrt(vol))
    rng = np.random.default_rng(8)
    f = rng.standard_normal(grid.shape)
    h = rng.standard_normal(grid.shape)
    assert abs(grid.inner(f, h)) <= grid.norm_h(f) * grid.norm_h(h) + 1e-14
    assert grid.norm_v(f) >= grid.norm_h(f)


def test_norm_h_unit_domain():
    g = build_grid(1, [16], [1.0])
    assert g.norm_h(g.constant(1.0)) == pytest.approx(1.0)


def test_operator_matrices_match_stencils(grid):
    rng = np.random.default_rng(9)
    w = rng.standard_normal(grid.shape)
    assert np.allclose((grid.stiffness_matrix @ w.ravel()).reshape(grid.shape),
                       -grid.laplacian(w), atol=1e-12)
    gc = grid.grad_cell(w)
    assert np.allclose(
        (grid.cell_gradient_matrix @ w.ravel()).reshape((grid.dim,) + grid.shape),
        gc, atol=1e-14)


def test_csc_product_on_the_gradient_arrays_is_the_transpose_product(grid):
    # The CSR arrays of G are the CSC arrays of G^T, so scipy's CSC kernel on them
    # is what G.T @ x runs; the singular solver adds G^T flux into its residual so.
    rng = np.random.default_rng(12)
    for g in (grid, build_grid(grid.dim, [128] * grid.dim, [1.0] * grid.dim)):
        G = g.cell_gradient_matrix
        x = rng.standard_normal(G.shape[0])
        out = np.zeros(g.n_cells)
        csc_matvec(g.n_cells, G.shape[0], G.indptr, G.indices, G.data, x, out)
        assert out.tobytes() == (G.T @ x).tobytes()


def csr_arrays(A):
    return A.format, A.shape, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()


def two_point_matrices(g, rows_are_faces, weights):
    """Per axis, the sparse matrix of an interior face's two cells (face gradient)
    or of a cell's two faces (face-to-cell averaging), built from coordinates."""
    cells = np.arange(g.n_cells).reshape(g.shape)
    mats = []
    for d, fshape in enumerate(g.face_shapes()):
        faces = np.arange(int(np.prod(fshape))).reshape(fshape)
        along = (slice(None),) * d
        if rows_are_faces:
            rows, nbrs, shape = faces[along + (slice(1, -1),)].ravel(), cells, (faces.size, g.n_cells)
        else:
            rows, nbrs, shape = cells.ravel(), faces, (g.n_cells, faces.size)
        lo, hi = nbrs[along + (slice(0, -1),)].ravel(), nbrs[along + (slice(1, None),)].ravel()
        w_lo, w_hi = weights(g.spacing[d])
        data = np.concatenate([np.full(rows.size, w_lo), np.full(rows.size, w_hi)])
        mats.append(sp.coo_matrix((data, (np.concatenate([rows, rows]), np.concatenate([lo, hi]))),
                                  shape=shape).tocsr())
    return mats


@pytest.mark.parametrize("cells,extents", [((4,), (1.0,)), ((37,), (1.3,)),
                                           ((4, 5), (1.0, 2.0)), ((12, 9), (1.0, 1.5))])
def test_operators_are_bitwise_the_sparse_products(cells, extents):
    # The operators are written directly in CSR form.  Each must hold the entries,
    # in the order within a row and with the values, that the sparse products
    # sum_d G_d^T G_d and A_d G_d of the face gradients G_d and the face-to-cell
    # averagings A_d give, so that every product with them sums in the same order.
    g = Grid(len(cells), cells, extents)
    G = two_point_matrices(g, True, lambda h: (-1.0 / h, 1.0 / h))
    A = two_point_matrices(g, False, lambda h: (0.5, 0.5))
    w = np.random.default_rng(9).standard_normal(g.shape)
    for d, M in enumerate(G):
        assert np.allclose((M @ w.ravel()).reshape(g.face_shapes()[d]), g.grad(w)[d], atol=1e-14)
    K = G[0].T @ G[0]
    for d in range(1, g.dim):
        K = K + G[d].T @ G[d]
    assert csr_arrays(g.stiffness_matrix) == csr_arrays(K.tocsr())
    cell_G = sp.vstack([A_d @ G_d for A_d, G_d in zip(A, G)]).tocsr()
    assert csr_arrays(g.cell_gradient_matrix) == csr_arrays(cell_G)


def test_cached_geometry_leaves_grid_identity_alone(grid):
    # The kept eta factor is keyed on (grid, lam, m), so a grid whose caches are
    # filled must still compare and hash like a fresh one.
    for name, attr in vars(Grid).items():
        if isinstance(attr, cached_property):
            getattr(grid, name)
    fresh = build_grid(grid.dim, grid.cells, grid.extents)
    assert grid == fresh and hash(grid) == hash(fresh)
    assert grid.spacing == tuple(L / n for L, n in zip(grid.extents, grid.cells))
    assert grid.n_cells == int(np.prod(grid.cells))
    assert grid.cell_volume == float(np.prod(grid.spacing))
    shapes = []
    for d in range(grid.dim):
        s = list(grid.shape)
        s[d] += 1
        shapes.append(tuple(s))
    assert grid.face_shapes() == tuple(shapes)


def test_jacobian_pattern_build_peak_memory():
    # The Newton matrices' fixed pattern is the map Grid.newton_diagonals.  On a 2D
    # 128^2 grid it keeps 3.3 MB, and its build peaks at about 12 MB.
    g = build_grid(2, [128, 128], [1.0, 1.0])
    g.cell_gradient_stencil, g.stiffness_matrix
    tracemalloc.start()
    try:
        g.newton_diagonals
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 21e6


@pytest.mark.parametrize("cells,extents,digest", [
    ([4], [1.0], "6a71d118ddc4656d717e9be320d346e84805fd571d37ef1f35051eb1b0423474"),
    ([37], [1.3], "3aadd319d851391e883c69869efbe17c71d81fcda1134f446ba39153865c0042"),
    ([128], [1.0], "b043b99dff111be3f5bfb37761637730253308d5c93e6675bb959f2914fe02f8"),
    ([4, 4], [1.0, 1.0], "e7c03b8968144a8c7c08b777db0b4adcf15ef9550ca42296a0a77191d90bcc8f"),
    ([5, 7], [1.0, 0.7], "eb76e43bac42f6f03e1f1fd07f831c987b701b96e1c53762787a30727337c673"),
    ([12, 10], [1.0, 0.8], "86718032795bf6774d55656768fe27f5ed17440ceb5eee80bddcf23201c0d717"),
    ([48, 48], [1.0, 1.0], "bedea7ea7d5165354ca3b28617cede6acdc32a42ba02bed6210f6dd33dd533d8"),
], ids=["4", "37", "128", "4x4", "5x7", "12x10", "48x48"])
def test_jacobian_pattern_bytes_are_pinned(cells, extents, digest):
    # Every Newton matrix is written from the map Grid.newton_diagonals, so its arrays
    # fix the bits of every solve.  They hold only integers and exact products of
    # +-1/(2h) and 1/h, so the digests (recorded from the map, whose matrices match the
    # sparse operator products) do not depend on BLAS.  The maps of the lower layout are
    # those of the upper layout they replaced, each slot moved to its mirror: the
    # entry (j, j + o) at column j + o of row K-1-k went to column j of row k.
    offsets, coupling, stiffness = build_grid(len(cells), cells, extents).newton_diagonals
    h = hashlib.sha256()
    for a in (np.array(offsets), coupling.data, coupling.indices, coupling.indptr, stiffness):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes(order="A"))
    assert h.hexdigest() == digest


def test_newton_diagonals_offsets():
    # Row k of the layout holds A[j + offsets[k], j]; in 1D that is LAPACK's lower band.
    assert build_grid(1, [7], [1.0]).newton_diagonals[0] == (0, 1, 2)
    assert build_grid(2, [5, 7], [1.0, 0.7]).newton_diagonals[0] == (0, 1, 2, 6, 7, 8, 14)


def test_cell_to_face_is_adjoint_of_face_to_cell(grid):
    rng = np.random.default_rng(10)
    F = tuple(rng.standard_normal(s) for s in grid.face_shapes())
    V = rng.standard_normal((grid.dim,) + grid.shape)
    lhs = grid.inner_faces(grid.cell_to_face(V), F)
    rhs = sum(grid.inner(grid.face_to_cell(F)[d], V[d]) for d in range(grid.dim))
    assert abs(lhs - rhs) <= 1e-12


def test_field_validation(grid):
    with pytest.raises(ValueError):
        grid.check_scalar(np.zeros((3,) * grid.dim))
    bad = grid.zeros()
    bad.flat[0] = np.nan
    with pytest.raises(ValueError):
        grid.check_scalar(bad)
    with pytest.raises(ValueError):
        grid.check_faces(tuple(np.zeros(s) for s in grid.face_shapes())[:-1] + (np.zeros((2, 2)),))
    with pytest.raises(ValueError, match=rf"^fields do not share this grid: \(3,\) vs "
                                         rf"{re.escape(str(grid.shape))}$"):
        grid.norm_h(np.zeros(3))


def planted(a, value):
    """Copies of ``a`` with ``value`` at its first, a middle and its last entry."""
    for index in (0, a.size // 2, a.size - 1):
        bad = a.copy()
        bad.flat[index] = value
        yield bad


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_entries_are_rejected_with_their_messages(grid, value):
    rng = np.random.default_rng(4)
    for bad in planted(rng.standard_normal(grid.shape), value):
        assert not all_finite(bad)
        with pytest.raises(ValueError, match="^u: contains non-finite values$"):
            grid.check_scalar(bad, "u")
    for bad in planted(rng.standard_normal((grid.dim,) + grid.shape), value):
        assert not all_finite(bad)
    faces = [rng.standard_normal(shape) for shape in grid.face_shapes()]
    for d in range(grid.dim):
        for bad in planted(faces[d], value):
            F = tuple(bad if e == d else faces[e] for e in range(grid.dim))
            with pytest.raises(ValueError, match=f"^F: non-finite values on axis-{d} faces$"):
                grid.check_faces(F, "F")


@pytest.mark.parametrize("scale", [1e200, 1e-310], ids=["1e200", "subnormal"])
def test_huge_and_subnormal_fields_are_finite(grid, scale):
    # squares of 1e200 overflow, so the element-wise test decides; squares of
    # subnormals vanish; neither warns
    rng = np.random.default_rng(9)
    cells = scale * rng.uniform(-1.0, 1.0, grid.shape)
    vectors = scale * rng.uniform(-1.0, 1.0, (grid.dim,) + grid.shape)
    faces = tuple(scale * rng.uniform(-1.0, 1.0, shape) for shape in grid.face_shapes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(np.vdot(cells, cells)) == (scale < 1.0)
        assert all_finite(cells) and all_finite(vectors)
        assert grid.check_scalar(cells, "u") is cells
        assert all(a is b for a, b in zip(grid.check_faces(faces, "F"), faces))


def test_snapshot_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.shape)
    path = tmp_path / "field.csv"
    save_field(path, grid, f)
    g2, f2 = load_field(path)
    assert g2 == grid
    assert np.array_equal(f, f2)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# grid dim=")


@pytest.mark.parametrize("lines,message", [
    (["0,0.1,1.0", "0,0.1,2.0", "2,0.6,3.0", "3,0.9,4.0"], "line 3: cell index 0"),
    (["0,0.1,1.0", "-1,0.9,2.0", "2,0.6,3.0", "3,0.9,4.0"], "line 3: cell index -1"),
    (["0,0.1,1.0", "1,0.4,2.0", "4,0.9,3.0", "3,0.9,4.0"], "line 4: cell index 4"),
], ids=["duplicate", "negative", "out-of-range"])
def test_load_field_rejects_bad_row_indices(tmp_path, lines, message):
    path = tmp_path / "field.csv"
    path.write_text("# grid dim=1 cells=4 extents=1.0\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message) as info:
        load_field(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_load_field_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "field.csv"
    path.write_text(f"# grid dim=1 cells=4 extents=1.0\n0,0.1,1.0\n1,0.4,{value}\n"
                    "2,0.6,3.0\n3,0.9,4.0\n")
    with pytest.raises(ValueError, match=f"line 3: value {value} is not finite") as info:
        load_field(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("text,message", [
    ("# grid cells=4 extents=1.0\n0,0.1,1.0\n", "header line has no dim= entry"),
    ("# grid dim=1 extents=1.0\n0,0.1,1.0\n", "header line has no cells= entry"),
    ("# grid dim=1 cells=4\n0,0.1,1.0\n", "header line has no extents= entry"),
    ("# grid dim=1 cells=4 extents=1.0\n0,0.1,1.0\n1,0.4\n", "line 3: expected 3 columns"),
    ("# grid dim=1 cells=4 extents=1.0\n0,0.1,1.0\n1,0.4,2.0,7.0\n",
     "line 3: expected 3 columns"),
    ("# grid dim=2 cells=4,4 extents=1.0,1.0\n0,0.1,1.0\n", "line 2: expected 4 columns"),
], ids=["no-dim", "no-cells", "no-extents", "missing-value", "extra-column", "2d-missing-y"])
def test_load_field_rejects_bad_headers_and_rows(tmp_path, text, message):
    path = tmp_path / "field.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        load_field(path)
    assert str(path) in str(info.value)


def _random_smooth_reference(grid, rng, mean, amplitude, max_mode):
    """The separate 1D and 2D cosine sums that random_smooth_field must reproduce bit for bit."""
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
                out += (c / (kx**2 + ky**2)) * (
                    np.cos(kx * np.pi * coords[0] / grid.extents[0])
                    * np.cos(ky * np.pi * coords[1] / grid.extents[1]))
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 1.0 / peak
    return mean + amplitude * out


@pytest.mark.parametrize("cells,extents", [([37], [1.0]), ([64], [2.5]), ([32, 32], [1.0, 1.0]),
                                           ([12, 9], [2.0, 0.7])])
@pytest.mark.parametrize("max_mode", [1, 3, 6])
def test_random_smooth_field_is_the_explicit_cosine_sum(cells, extents, max_mode):
    g = build_grid(len(cells), cells, extents)
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):      # a second draw checks the generator is left where it was
            got = random_smooth_field(g, rng, mean=0.3, amplitude=0.7, max_mode=max_mode)
            want = _random_smooth_reference(g, ref_rng, 0.3, 0.7, max_mode)
            assert got.tobytes() == want.tobytes()


def test_field_constructors():
    g = build_grid(1, [64], [1.0])
    f = cosine_field(g, mean=1.0, amplitude=0.5, mode=2)
    assert abs(np.mean(f) - 1.0) < 1e-3
    b = bump_field(g, center=0.5, width=0.1, amplitude=2.0)
    assert np.max(b) == pytest.approx(2.0, rel=1e-2)
    rng = np.random.default_rng(0)
    r1 = random_smooth_field(g, rng, mean=0.0, amplitude=1.0)
    r2 = random_smooth_field(g, np.random.default_rng(0), mean=0.0, amplitude=1.0)
    assert np.array_equal(r1, r2)
    assert np.max(np.abs(r1)) == pytest.approx(1.0)


# -- the stencil kernels against their earlier definitions ---------------------------
# Each kernel was rewritten to copy and wrap less.  The earlier definitions are kept
# here as the reference; the kernels must give their bytes on every input, signed
# zeros and subnormals included.


def _along(d, index):
    return (slice(None),) * d + (index,)


def old_div(grid, F):
    F = grid.check_faces(F)
    out = np.zeros(grid.shape)
    for d, (h, comp) in enumerate(zip(grid.spacing, F)):
        comp = comp.copy()
        comp[_along(d, 0)] = 0.0
        comp[_along(d, -1)] = 0.0
        out += (comp[_along(d, slice(1, None))] - comp[_along(d, slice(0, -1))]) / h
    return out


def old_laplacian(grid, f):
    return old_div(grid, grid.grad(f))


def old_grad(grid, f):
    comps = []
    for d, (h, shape) in enumerate(zip(grid.spacing, grid.face_shapes())):
        g = np.zeros(shape)
        g[_along(d, slice(1, grid.cells[d]))] = (f[_along(d, slice(1, None))]
                                                 - f[_along(d, slice(0, -1))]) / h
        comps.append(g)
    return tuple(comps)


def old_face_to_cell(grid, F):
    out = np.zeros((grid.dim,) + grid.shape)
    for d in range(grid.dim):
        out[d] = 0.5 * (F[d][_along(d, slice(0, -1))] + F[d][_along(d, slice(1, None))])
    return out


def old_cell_to_face(grid, V):
    comps = []
    for d, (v, shape) in enumerate(zip(V, grid.face_shapes())):
        g = np.zeros(shape)
        g[_along(d, slice(1, grid.cells[d]))] = 0.5 * (v[_along(d, slice(0, -1))]
                                                       + v[_along(d, slice(1, None))])
        g[_along(d, 0)] = 0.5 * v[_along(d, 0)]
        g[_along(d, -1)] = 0.5 * v[_along(d, -1)]
        comps.append(g)
    return tuple(comps)


def old_norm_h(grid, f):
    return math.sqrt(max(float(np.add.reduce(f * f, axis=None) * grid.cell_volume), 0.0))


def old_inner_faces(grid, F, G):
    total = 0.0
    for d in range(grid.dim):
        total += float((np.asarray(F[d]) * np.asarray(G[d])).sum())
    return total * grid.cell_volume


def signed_zero_field(rng, shape):
    """Normal values mixed with +-0.0, +-1.0 and +-subnormals, so that differences,
    halvings and quotients meet every signed-zero and underflow case."""
    special = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -1e-310])
    out = rng.standard_normal(shape)
    pick = rng.random(shape) < 0.6
    out[pick] = rng.choice(special, size=int(np.count_nonzero(pick)))
    return out


@pytest.mark.parametrize("cells,extents", [([4], [1.0]), ([37], [1.3]), ([16], [5e3]),
                                           ([4, 5], [1.0, 2.0]), ([12, 9], [1.0, 1.5]),
                                           ([6, 7], [4e3, 0.5])])
def test_rewritten_stencil_kernels_give_the_bytes_of_their_old_definitions(cells, extents):
    g = build_grid(len(cells), cells, extents)
    rng = np.random.default_rng(21)
    for trial in range(20):
        F = tuple(signed_zero_field(rng, shape) for shape in g.face_shapes())
        G = tuple(signed_zero_field(rng, shape) for shape in g.face_shapes())
        if trial % 2:            # -0.0 on the wall faces, beside +0.0 inside
            for d, comp in enumerate(F):
                comp[...] = 0.0
                comp[_along(d, 0)] = -0.0
                comp[_along(d, -1)] = -0.0
        f = signed_zero_field(rng, g.shape)
        V = signed_zero_field(rng, (g.dim,) + g.shape)
        assert g.div(F).tobytes() == old_div(g, F).tobytes()
        assert g.laplacian(f).tobytes() == old_laplacian(g, f).tobytes()
        for new, old in zip(g.grad(f), old_grad(g, f)):
            assert new.tobytes() == old.tobytes()
        assert g.face_to_cell(F).tobytes() == old_face_to_cell(g, F).tobytes()
        for new, old in zip(g.cell_to_face(V), old_cell_to_face(g, V)):
            assert new.tobytes() == old.tobytes()
        for new, old in zip(g._cell_to_face(V), old_cell_to_face(g, V)):
            assert new.tobytes() == old.tobytes()
        assert np.float64(g.norm_h(f)).tobytes() == np.float64(old_norm_h(g, f)).tobytes()
        assert np.float64(g._norm_h(f)).tobytes() == np.float64(old_norm_h(g, f)).tobytes()
        assert (np.float64(g.inner_faces(F, G)).tobytes()
                == np.float64(old_inner_faces(g, F, G)).tobytes())
