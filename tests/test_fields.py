import re
import struct

import numpy as np
import pytest

from adjointgp import (
    DomainError,
    Field,
    Grid,
    GridMismatchError,
    field_from_binary,
    field_to_binary,
    inner_product,
    norm,
    window_indicator,
)
from adjointgp.fields import bank_rows, window_boxes
from adjointgp.ode import OdeParams, OdeSystem
from adjointgp.pde import PdeParams, PdeSystem
from adjointgp.shift import ShiftParams, ShiftSystem
from oracles import cell_box, dense_field


def test_grid_regular_layout():
    grid = Grid.regular(((0.0, 1.0), (2.0, 6.0)), (100, 8))
    assert grid.dims == (100, 8)
    np.testing.assert_allclose(grid.spacing, (0.01, 0.5))
    np.testing.assert_allclose(grid.origin, (0.0, 2.0))
    assert grid.num_cells == 800
    np.testing.assert_allclose(grid.cell_volume, 0.005)
    np.testing.assert_allclose(grid.bounds(1), (2.0, 6.0))


def test_grid_centers_first_and_last():
    grid = Grid.regular(((0.0, 1.0),), (4,))
    np.testing.assert_allclose(grid.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_grid_equality_is_structural():
    a = Grid.regular(((0.0, 1.0),), (10,))
    b = Grid.regular(((0.0, 1.0),), (10,))
    c = Grid.regular(((0.0, 1.0),), (20,))
    assert a == b
    assert a != c


def test_grid_rejects_degenerate_axes():
    with pytest.raises(ValueError):
        Grid((1,), (0.1,), (0.0,))
    with pytest.raises(ValueError):
        Grid((4,), (-0.1,), (0.0,))
    with pytest.raises(ValueError):
        Grid.regular(((1.0, 1.0),), (4,))


def test_field_is_immutable():
    grid = Grid.regular(((0.0, 1.0),), (5,))
    f = Field.full(grid, 2.0)
    with pytest.raises(AttributeError):
        f.values = np.zeros(5)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_field_rejects_nonfinite_and_bad_shape():
    grid = Grid.regular(((0.0, 1.0),), (5,))
    with pytest.raises(ValueError):
        Field(grid, [1.0, np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Field(grid, np.zeros(4))


def test_inner_product_of_normalized_window_is_one():
    grid = Grid.regular(((0.0, 1.0),), (100,))
    w = window_indicator(grid, [0.25], [0.35])
    ones = Field.full(grid, 1.0)
    np.testing.assert_allclose(inner_product(w, ones), 1.0, rtol=1e-12)


def test_window_covers_expected_cells():
    """[0.25, 0.35) on a 100-cell unit grid is 10 cells at height 10."""
    grid = Grid.regular(((0.0, 1.0),), (100,))
    w = window_indicator(grid, [0.25], [0.35])
    values = dense_field(w).values_flat
    covered = np.nonzero(values)[0]
    np.testing.assert_array_equal(covered, np.arange(25, 35))
    np.testing.assert_allclose(values[covered], 10.0, rtol=1e-12)


def test_window_snaps_to_cell_centers():
    grid = Grid.regular(((0.0, 1.0),), (10,))
    # covers only the cell centered at 0.35
    w = window_indicator(grid, [0.32], [0.41])
    assert np.count_nonzero(dense_field(w).values_flat) == 1
    with pytest.raises(DomainError):
        window_indicator(grid, [0.36], [0.39])
    with pytest.raises(ValueError):
        window_indicator(grid, [0.5], [0.4])


def test_inner_product_quadrature_anchors():
    grid = Grid.regular(((0.0, 1.0),), (200,))
    t = Field(grid, grid.axis_centers(0))
    ones = Field.full(grid, 1.0)
    # midpoint rule is exact for linear integrands
    np.testing.assert_allclose(inner_product(t, ones), 0.5, rtol=1e-12)
    t2 = Field(grid, grid.axis_centers(0) ** 2)
    np.testing.assert_allclose(inner_product(t2, ones), 1.0 / 3.0, rtol=1e-3)


def test_inner_product_matches_naive_loop():
    rng = np.random.default_rng(7)
    grid = Grid.regular(((0.0, 2.0), (1.0, 3.0), (0.0, 1.0)), (4, 5, 3))
    a = Field(grid, rng.standard_normal(grid.shape))
    b = Field(grid, rng.standard_normal(grid.shape))
    acc = 0.0
    for i in range(4):
        for j in range(5):
            for k in range(3):
                acc += a.values[i, j, k] * b.values[i, j, k]
    acc *= grid.cell_volume
    np.testing.assert_allclose(inner_product(a, b), acc, rtol=1e-12)


@pytest.mark.parametrize("grid,boxes", [
    # overlapping, nested, the same, touching and apart on a 10-cell line
    (Grid.regular(((0.0, 1.0),), (10,)),
     [([0.2], [0.6]), ([0.4], [0.9]), ([0.5], [0.6]), ([0.2], [0.6]), ([0.6], [0.8]), ([0.0], [0.1])]),
    # overlapping in every axis, then in only two of three
    (Grid.regular(((0.0, 2.0), (1.0, 3.0), (0.0, 1.0)), (4, 5, 3)),
     [([0.0, 1.0, 0.0], [1.5, 2.6, 0.7]), ([0.5, 2.2, 0.3], [2.0, 3.0, 1.0]),
      ([1.0, 1.0, 0.7], [2.0, 3.0, 1.0])]),
])
def test_inner_product_of_two_windows_is_the_dot_product_of_their_rows(grid, boxes):
    windows = [window_indicator(grid, lo, hi) for lo, hi in boxes]
    rows = bank_rows(windows, grid)
    for i, a in enumerate(windows):
        for j, b in enumerate(windows):
            expected = float(rows[i] @ rows[j]) * grid.cell_volume
            np.testing.assert_allclose(inner_product(a, b), expected, rtol=1e-12, atol=0.0)
            assert (inner_product(a, b) == 0.0) == (expected == 0.0), (i, j)


def test_inner_product_rejects_grid_mismatch():
    a = Field.full(Grid.regular(((0.0, 1.0),), (10,)), 1.0)
    b = Field.full(Grid.regular(((0.0, 1.0),), (20,)), 1.0)
    with pytest.raises(GridMismatchError):
        inner_product(a, b)


def test_norm_matches_manual():
    grid = Grid.regular(((0.0, 1.0),), (4,))
    f = Field(grid, [3.0, 0.0, 0.0, 4.0])
    np.testing.assert_allclose(norm(f), np.sqrt(25.0 * 0.25), rtol=1e-12)


def test_point_window_selects_single_cell():
    grid = Grid.regular(((0.0, 1.0),), (10,))
    w = window_indicator(grid, [0.23], [0.23])
    values = dense_field(w).values_flat
    covered = np.nonzero(values)[0]
    np.testing.assert_array_equal(covered, [2])
    np.testing.assert_allclose(values[2], 10.0, rtol=1e-12)


def test_point_window_closed_upper_edge():
    # the domain's top boundary belongs to the last cell
    grid = Grid.regular(((0.0, 1.0),), (10,))
    w = window_indicator(grid, [1.0], [1.0])
    assert np.nonzero(dense_field(w).values_flat)[0].tolist() == [9]
    with pytest.raises(DomainError):
        window_indicator(grid, [1.0000001], [1.0000001])
    with pytest.raises(DomainError):
        window_indicator(grid, [-0.1], [-0.1])


def _mixed_bounds(grid, rng):
    """One axis of a random box: a point inside, on a cell edge, just past
    an end, or NaN; a span, whole, random or narrower than a cell."""
    lo, hi = [], []
    for k in range(grid.ndim):
        a, b = grid.bounds(k)
        edges = a + grid.spacing[k] * np.arange(grid.dims[k] + 1)
        points = [rng.uniform(a, b), rng.choice(edges), np.nextafter(b, np.inf),
                  np.nextafter(a, -np.inf), np.nan]
        spans = [(a, b), tuple(np.sort(rng.uniform(a - 0.2, b + 0.2, 2))),
                 (edges[1] + 0.1 * grid.spacing[k], edges[1] + 0.3 * grid.spacing[k])]
        pick = rng.integers(8)
        x, y = (points[pick],) * 2 if pick < 5 else spans[pick - 5]
        lo.append(float(x))
        hi.append(float(y))
    return lo, hi


def test_boxes_mixing_point_and_span_axes_match_the_axis_by_axis_oracle():
    grid = Grid.regular(((0.0, 3.0), (-2.0, 1.0), (0.5, 1.7)), (9, 11, 3))
    rng = np.random.default_rng(35)
    boxes = [_mixed_bounds(grid, rng) for _ in range(1500)]
    good, refused = [], 0
    for lo, hi in boxes:
        try:
            expected = cell_box(grid, lo, hi)
        except DomainError as exc:
            refused += 1
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                window_indicator(grid, lo, hi)
            continue
        assert window_indicator(grid, lo, hi) == expected, (lo, hi)
        good.append((lo, hi, expected))
    assert len(good) > 100 and refused > 100
    # cut all at once they are the same windows
    lows, highs, expected = zip(*good)
    assert window_boxes(grid, lows, highs) == list(expected)
    # with one refused box among them the batch raises as that box does
    lo, hi = [0.4, np.nan, 1.0], [0.4, np.nan, 1.0]
    with pytest.raises(DomainError, match="^point coordinate nan outside axis 1$"):
        window_boxes(grid, lows[:7] + (lo,) + lows[7:], highs[:7] + (hi,) + highs[7:])


def test_reversed_and_narrow_boxes_are_refused():
    grid = Grid.regular(((0.0, 1.0), (0.0, 2.0)), (10, 4))
    # lo > hi on any axis, also beside a point axis or against a NaN
    for lo, hi in (((0.5, 1.0), (0.4, 1.5)), ((0.5, 1.0), (0.5, 0.9)),
                   ((np.nan, 1.0), (0.4, 1.5)), ((0.2, 1.0), (np.nan, 1.5))):
        with pytest.raises(ValueError, match="lo <= hi"):
            window_indicator(grid, lo, hi)
    # a span narrower than a cell that holds no center
    with pytest.raises(DomainError, match=r"^window \[0.36, 0.39\) contains no cell centers on axis 0$"):
        window_indicator(grid, (0.36, 0.5), (0.39, 0.5))


LINE = Grid.regular(((0.0, 10.0),), (200,))
LINE_WINDOWS = [window_indicator(LINE, [t], [t + 0.3 + 0.1 * (i % 3)])
                for i, t in enumerate(np.linspace(0.5, 8.5, 9))]


def _pde_bank():
    grid = Grid.regular(((0.0, 10.0), (0.0, 9.0), (0.0, 13.0)), (20, 9, 13))
    params = PdeParams((0.4, -0.3), 0.05, ((0.0, 9.0), (0.0, 13.0)), 10.0)
    windows = [window_indicator(grid, (1.0 + k, 1.0 + k, 2.0), (3.0 + 2.0 * k, 4.0 + k, 7.0))
               for k in range(4)]
    return PdeSystem(params, grid).adjoint_march(windows + [Field.zeros(grid)])


BANKS = {
    "ode": lambda: OdeSystem(OdeParams(5.0, 1.0, 0.5, 10.0), LINE).adjoint_march(LINE_WINDOWS),
    "pde": _pde_bank,
    "pde-kept": lambda: _pde_bank().kept(),
    "shift": lambda: ShiftSystem(ShiftParams(1.0, 10.0), LINE).adjoint_march(LINE_WINDOWS),
}


@pytest.mark.parametrize("kind", BANKS)
def test_every_slab_holds_its_bases_as_contiguous_rows(kind):
    # a slab (cells, v) is (w, cells), row j solving base order[j]: on a 1-D
    # bank every base, on a PDE time cell the bases live there; `rows`, which
    # the single-solve tests check, reads the slabs by that contract
    bank = BANKS[kind]()
    per_time = bank.grid.num_cells // bank.grid.dims[0]
    live = bank.live[bank.order]
    slabs = list(bank.slabs())
    assert len(slabs) == (1 if bank.grid.ndim == 1 else live.max())
    for cells, v in slabs:
        w = len(live) if bank.grid.ndim == 1 else np.count_nonzero(live > cells.start // per_time)
        assert v.flags.c_contiguous
        assert v.shape == (w, cells.stop - cells.start)


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    grid = Grid.regular(((0.0, 10.0), (0.0, 5.0), (-1.0, 1.0)), (5, 4, 3))
    f = Field(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "field.fld"
    field_to_binary(f, path)
    g = field_from_binary(path)
    assert g.grid == f.grid
    assert (g.values == f.values).all()


def test_binary_reads_a_file_with_the_mask_flag_set(tmp_path):
    # older writers set the flag and appended one mask byte per cell, over
    # values already 0 where the mask is 0; the reader skips those bytes
    values = [0.0, 1.0, 0.0, 3.0, 0.0, 5.0]
    raw = b"".join([b"AGPFLD01", struct.pack("<IB3x", 1, 1), struct.pack("<Q", 6),
                    struct.pack("<d", 1.0 / 6.0), struct.pack("<d", 0.0),
                    struct.pack("<6d", *values), bytes([0, 1, 0, 1, 0, 1])])
    path = tmp_path / "field.fld"
    path.write_bytes(raw)
    g = field_from_binary(path)
    assert g.grid == Grid.regular(((0.0, 1.0),), (6,))
    assert g.values_flat.tolist() == values and not np.signbit(g.values_flat).any()
    # written back, it carries the flag 0 and no mask bytes
    field_to_binary(g, tmp_path / "again.fld")
    assert (tmp_path / "again.fld").read_bytes() == raw[:12] + b"\x00" + raw[13:-6]


def test_binary_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.fld"
    path.write_bytes(b"NOTAFLD0" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        field_from_binary(path)
