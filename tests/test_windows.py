"""Observation windows are boxes: banks and readings built from the boxes
equal those of the same windows rendered as dense fields, and building a
config's windows holds no grid-sized array and cuts each box as
window_indicator would, a point sensor's cell as the `cell_box` oracle
finds it."""

import re
import tracemalloc

import numpy as np
import pytest

from adjointgp import (
    DomainError,
    Field,
    Grid,
    GridMismatchError,
    OdeParams,
    OdeSystem,
    PdeParams,
    PdeSystem,
    ShiftParams,
    ShiftSystem,
    Window,
    inner_product,
    window_indicator,
)
from adjointgp.config import parse_config
from adjointgp.experiments import build_heldout, build_windows, make_grid
from oracles import cell_box, dense_field, random_smooth_field

PDE_BOUNDS = ((0.0, 10.0), (0.0, 10.0))


def _ode():
    grid = Grid.regular(((0.0, 10.0),), (400,))
    return OdeSystem(OdeParams(p0=5.0, p1=1.0, p2=0.5, T=10.0), grid)


def _pde():
    grid = Grid.regular(((0.0, 10.0), *PDE_BOUNDS), (20, 12, 12))
    params = PdeParams(velocity=(0.4, -0.3), diffusivity=0.01, bounds=PDE_BOUNDS, T=10.0)
    return PdeSystem(params, grid)


def _shift(a):
    return lambda: ShiftSystem(ShiftParams(a=a, T=10.0), Grid.regular(((0.0, 10.0),), (400,)))


SYSTEMS = {"ode": _ode, "pde": _pde, "shift+": _shift(1.2), "shift-": _shift(-2.0)}


def _windows(grid):
    """Boxes over the whole time axis, touching either end, and single cells."""
    if grid.ndim == 3:
        return [window_indicator(grid, (2.5 * k, 2.0 + k, 3.0), (2.5 * k + 3.0, 4.0 + k, 5.0))
                for k in range(3)] + [
            window_indicator(grid, (0.0, 0.0, 0.0), (10.0, 10.0, 10.0)),
            window_indicator(grid, (9.0, 8.0, 0.0), (10.0, 10.0, 2.0)),
            window_indicator(grid, (10.0, 0.0, 5.0), (10.0, 0.0, 5.0)),
        ]
    return [window_indicator(grid, [lo], [hi])
            for lo, hi in ((0.0, 2.0), (1.0, 3.5), (4.0, 10.0), (0.0, 10.0), (9.9, 10.0),
                           (0.0, 0.0), (5.01, 5.01))]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_bank_of_boxes_equals_bank_of_dense_windows(name):
    system = SYSTEMS[name]()
    windows = _windows(system.grid)
    assert all(isinstance(w, Window) for w in windows)
    boxes = system.adjoint_march(windows).kept()
    dense = system.adjoint_march([dense_field(w) for w in windows]).kept()
    if name == "pde":
        # a PDE window is summed from its box's impulse shifts, a dense field
        # is marched whole: equal to rounding, with the same zero cells
        np.testing.assert_allclose(boxes.rows, dense.rows, rtol=1e-13, atol=0.0)
        assert np.array_equal(boxes.rows == 0.0, dense.rows == 0.0)
    else:
        assert np.array_equal(boxes.rows, dense.rows)
    assert np.array_equal(boxes.live, dense.live)


@pytest.mark.parametrize("name", ["ode", "shift+", "shift-"])
def test_one_dimensional_march_raises_at_the_call_naming_the_row(name):
    # a 1-D bank is solved inside adjoint_march, so a functional on another
    # grid is refused there, named by the caller's index
    system = SYSTEMS[name]()
    other = Grid.regular(((0.0, 10.0),), (system.grid.dims[0] // 2,))
    windows = _windows(system.grid)
    windows[2:2] = [window_indicator(other, [1.0], [2.0])]
    with pytest.raises(GridMismatchError, match=r"^right-hand side 2 lives on a different grid$"):
        system.adjoint_march(windows)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_box_reading_equals_dense_inner_product(name):
    system = SYSTEMS[name]()
    grid = system.grid
    f = random_smooth_field(grid, seed=41)
    solutions = [f, system.forward(f)]
    if grid.ndim == 1:
        solutions.append(Field(grid, np.where(grid.axis_centers(0) < 7.0, f.values, 0.0)))
    if name.startswith("shift"):
        # cells shifted in from outside the domain hold 0, so the box mean
        # counts them as the dense inner product does: in the window, not in
        # the sum
        assert (solutions[1].values_flat == 0.0).any()
    for u in solutions:
        for w in _windows(grid):
            expected = inner_product(dense_field(w), u)
            for got in (inner_product(w, u), inner_product(u, w)):
                assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


PDE_INFER = """
[system]
kind = pde
velocity_x = 0.4
velocity_y = 0.4
diffusivity = 0.01
x_min = 0.0
x_max = 10.0
y_min = 0.0
y_max = 10.0
T = 10.0

[grid]
cells_t = 50
cells_y = 30
cells_x = 30

[kernel]
lengthscale = 2.0
variance = 2.0

[features]
count = 100

[sensors]
rule = grid
count = 25
time_windows = 4
heldout_count = 9

[noise]
sigma = 0.05
"""


def test_windows_of_a_config_hold_no_grid_sized_array():
    config = parse_config(PDE_INFER)
    grid = make_grid(config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        windows, _ = build_windows(config, grid)
        heldout, _ = build_heldout(config, grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(windows) == 100 and len(heldout) == 36
    # one dense window of this grid alone is 0.36 MB
    assert held - before < 5e6
    assert peak - before < 5e6


def _windows_one_at_a_time(config, grid, count):
    """The windows of a tile or grid rule, each cut by its own
    window_indicator call; a point sensor's cell is the oracle's."""
    sensors = config["sensors"]
    t_start, t_end = sensors["t_start"], sensors["t_end"]
    if sensors["rule"] == "tile":
        edges = np.linspace(t_start, t_end, count + 1)
        return [window_indicator(grid, (lo,), (hi,)) for lo, hi in zip(edges[:-1], edges[1:])]
    k, size = int(np.sqrt(count)), sensors["size"]
    rel = (np.arange(k) + 0.5) / k
    ys = grid.bounds(1)[0] + rel * (grid.bounds(1)[1] - grid.bounds(1)[0])
    xs = grid.bounds(2)[0] + rel * (grid.bounds(2)[1] - grid.bounds(2)[0])
    edges = np.linspace(t_start, t_end, sensors["time_windows"] + 1)
    windows = []
    for y in ys:
        for x in xs:
            if size > 0.0:
                lo, hi = (y - 0.5 * size, x - 0.5 * size), (y + 0.5 * size, x + 0.5 * size)
            else:  # the cell holding the sensor's center
                cell = cell_box(grid, (0.0, y, x), (0.0, y, x)).box
                c = [grid.axis_centers(k)[cell[k].start] for k in (1, 2)]
                lo = (c[0] - 0.5 * grid.spacing[1], c[1] - 0.5 * grid.spacing[2])
                hi = (c[0] + 0.5 * grid.spacing[1], c[1] + 0.5 * grid.spacing[2])
            windows += [window_indicator(grid, (a, *lo), (b, *hi))
                        for a, b in zip(edges[:-1], edges[1:])]
    return windows


ODE_TILE = """
[system]
kind = ode
p0 = 5.0
p1 = 1.0
p2 = 0.5
T = 10.0

[grid]
cells = 2000

[kernel]
lengthscale = 0.7
variance = 4.0

[features]
count = 100

[sensors]
rule = tile
count = 100
heldout_count = 20

[noise]
sigma = 0.05
"""


@pytest.mark.parametrize("text", [
    PDE_INFER,
    PDE_INFER.replace("time_windows = 4", "time_windows = 7\nsize = 1.3"),
    PDE_INFER.replace("count = 25", "count = 16\nsize = 0.0\nt_start = 1.0\nt_end = 9.0"),
    ODE_TILE,
    ODE_TILE.replace("count = 100\nheldout", "count = 7\nt_start = 0.3\nt_end = 9.1\nheldout"),
], ids=["pde-infer", "pde-sized", "pde-cells", "ode-bundle", "ode-short"])
def test_rule_windows_equal_windows_cut_one_at_a_time(text):
    config = parse_config(text)
    grid = make_grid(config)
    for build, stagger in ((build_windows, False), (build_heldout, True)):
        windows, specs = build(config, grid)
        count = config["sensors"]["heldout_count" if stagger else "count"]
        assert windows == _windows_one_at_a_time(config, grid, count)
        assert len(specs) == len(windows)


@pytest.mark.parametrize("sensors", [
    "rule = span\ncount = 9\nheldout_count = 4",
    "rule = span\ncount = 1\nt_start = 0.3\nt_end = 9.1",
    "rule = list\ntimes = 0.0, 0.005, 2.5, 7.25, 9.999, 10.0",
], ids=["span", "span-one", "list"])
def test_point_rule_windows_are_the_cells_holding_their_times(sensors):
    config = parse_config(ODE_TILE.replace("rule = tile\ncount = 100\nheldout_count = 20", sensors))
    grid = make_grid(config)
    for build in (build_windows, build_heldout):
        windows, specs = build(config, grid)
        assert windows == [cell_box(grid, spec.lo, spec.hi) for spec in specs]
        assert all(spec.label == "point" and spec.lo == spec.hi for spec in specs)


def test_rule_windows_raise_as_the_first_empty_window_does():
    config = parse_config(PDE_INFER.replace("time_windows = 4", "time_windows = 4\nsize = 0.1"))
    grid = make_grid(config)
    with pytest.raises(DomainError) as one:
        _windows_one_at_a_time(config, grid, 25)
    with pytest.raises(DomainError, match=re.escape(str(one.value))):
        build_windows(config, grid)
