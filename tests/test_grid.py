import math
import re
from decimal import Decimal

import numpy as np
import pytest

from mfg_forecast.experiments import run_test
from mfg_forecast.grid import Field, _format_lines, field_from_function, make_grid, \
    write_field_csv


def test_working_grid_node_counts():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    assert (g.nx, g.nt) == (21, 11)


def test_extended_grid_node_counts():
    g = make_grid(-1, 1, 2, 0.1, 0.1, 0.5)
    assert (g.nx, g.nt) == (21, 21)


def test_non_divisible_step_rejected_naming_axis():
    with pytest.raises(ValueError, match="x"):
        make_grid(-1, 1, 1, 0.3, 0.1, 0.5)
    with pytest.raises(ValueError, match="t"):
        make_grid(-1, 1, 1, 0.1, 0.3, 0.5)


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5])
def test_gamma_outside_unit_interval_rejected(gamma):
    with pytest.raises(ValueError, match="gamma"):
        make_grid(-1, 1, 1, 0.1, 0.1, gamma)


def test_recovery_window_needs_two_time_nodes():
    # gamma*t_max = 0.05 < dt: the window [0, 0.05] would hold t = 0 alone
    with pytest.raises(ValueError, match=r"gamma=0\.05 .*fewer than two time nodes"):
        make_grid(-1, 1, 1, 0.1, 0.1, 0.05)
    assert make_grid(-1, 1, 1, 0.1, 0.1, 0.1).n_t_gamma() == 2
    assert make_grid(-1, 1, 1, 0.1, 0.05, 0.05).n_t_gamma() == 2


def test_degenerate_extents_rejected():
    with pytest.raises(ValueError):
        make_grid(1, -1, 1, 0.1, 0.1, 0.5)
    with pytest.raises(ValueError):
        make_grid(-1, 1, -1, 0.1, 0.1, 0.5)
    # NaN fails every bound, and the message names the value
    nan = float("nan")
    with pytest.raises(ValueError, match="t_max must be positive, got nan"):
        make_grid(-1, 1, nan, 0.1, 0.1, 0.5)
    with pytest.raises(ValueError, match="dx must be positive, got nan"):
        make_grid(-1, 1, 1, nan, 0.1, 0.5)
    with pytest.raises(ValueError, match="dt must be positive, got nan"):
        make_grid(-1, 1, 1, 0.1, nan, 0.5)


def test_nodes_are_exact_affine_images():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    xs = g.x_nodes()
    for i in range(g.nx):
        assert xs[i] == -1.0 + i * 0.1  # exact formula, no accumulation drift
    assert xs[0] == -1.0 and xs[-1] == 1.0


def test_gamma_time_node_count():
    # 0.6 * 1 / 0.1 = 5.999...; the count must still be floor(6) + 1.
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    assert g.n_t_gamma() == 7
    g2 = make_grid(-1, 1, 1, 0.1, 0.1, 0.55)
    assert g2.n_t_gamma() == 6


def test_field_from_function_zero():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    f = field_from_function(g, lambda x, t: 0.0)
    assert np.all(f.values == 0.0)


def test_field_from_function_roundtrip_exact():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)

    def fn(x, t):
        return (x * x - 1.0) ** 2 * (t * t + 1.0)

    f = field_from_function(g, fn)
    assert f.values[0, 0] == 0.0
    i0 = 10  # x = 0
    assert f.values[i0, 0] == 1.0
    for i, x in enumerate(g.x_nodes()):
        for j, t in enumerate(g.t_nodes()):
            assert f.values[i, j] == fn(x, t)


def test_field_oscillatory_sample_value():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    f = field_from_function(g, lambda x, t: 0.1 * math.cos(2 * math.pi * x) * (t + 1))
    assert f.values[10, 0] == pytest.approx(0.1, abs=1e-15)


def test_field_rejects_non_finite_and_names_node():
    g = make_grid(-1, 1, 1, 0.5, 0.5, 0.6)

    def bad(x, t):
        return math.inf if (x == 0.0 and t == 0.5) else 0.0

    with pytest.raises(ValueError, match=re.escape(
            "non-finite field value at node (i=2, j=1): inf at x=0.0, t=0.5")):
        field_from_function(g, bad)

    def nan_at_end(x, t):  # NaN at (i, j) = (3, 2) and (4, 2)
        return math.nan if (x >= 0.5 and t == 1.0) else x * t

    # a NaN is refused too, naming the first non-finite node in (i, j) order
    with pytest.raises(ValueError, match=re.escape(
            "non-finite field value at node (i=3, j=2): nan at x=0.5, t=1.0")):
        field_from_function(g, nan_at_end)

    def whole(x, t):
        return int(2 * x) - 3 * int(2 * t)

    # an integer-returning g is sampled into float64 values
    f = field_from_function(g, whole)
    assert f.values.dtype == np.float64
    assert np.array_equal(f.values, [[float(whole(x, t)) for t in g.t_nodes()]
                                     for x in g.x_nodes()])


def test_field_shape_mismatch_rejected():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    with pytest.raises(ValueError, match="shape"):
        Field(g, np.zeros((3, 3)))


def test_field_values_immutable():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    f = field_from_function(g, lambda x, t: x)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_initial_slice_of_double_well(t11_case):
    g = t11_case.spec.grid
    expected = (g.x_nodes() ** 2 - 1.0) ** 2
    assert np.allclose(t11_case.u_true.values[:, 0], expected, atol=1e-15)


def _loaded_values(path, grid):
    """The values of a write_field_csv file, parsed by np.loadtxt, after
    checking that its rows are the grid's nodes, t-outer and x-inner."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    xs, ts = np.meshgrid(grid.x_nodes(), grid.t_nodes())
    assert np.array_equal(data[:, 0], xs.ravel())
    assert np.array_equal(data[:, 1], ts.ravel())
    return data[:, 2].reshape(grid.nt, grid.nx).T


def test_csv_roundtrip_bit_exact(tmp_path):
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    rng = np.random.default_rng(3)
    f = Field(g, rng.standard_normal((g.nx, g.nt)))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    assert np.array_equal(_loaded_values(path, g), f.values)
    header = path.read_text().splitlines()[0]
    assert header == "x,t,value"


def _write_field_csv_per_row(field, path):
    """The per-row formatter write_field_csv replaced, kept as a reference."""
    xs = field.grid.x_nodes()
    ts = field.grid.t_nodes()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,t,value\n")
        for j, t in enumerate(ts):
            for i, x in enumerate(xs):
                fh.write(f"{x:.17g},{t:.17g},{field.values[i, j]:.17g}\n")


def test_csv_bytes_match_per_row_formatter(tmp_path):
    # dx = dt = 0.0125 has no exact binary form, so the coordinates carry
    # 17-digit tails; the values mix signs, zeros and extreme magnitudes.
    g = make_grid(-1, 1, 1, 0.0125, 0.0125, 0.6)
    assert (g.nx, g.nt) == (161, 81)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((g.nx, g.nt)) * 10.0 ** rng.integers(-300, 300, (g.nx, g.nt))
    vals[:3, :3] = [[0.0, -0.0, 1.0], [-1.0, 5e-324, 1e308], [0.1, 1 / 3, -2.5]]
    f = Field(g, vals)
    path, reference = tmp_path / "field.csv", tmp_path / "reference.csv"
    write_field_csv(f, path)
    _write_field_csv_per_row(f, reference)
    assert path.read_bytes() == reference.read_bytes()
    assert np.array_equal(_loaded_values(path, g), f.values)


def test_csv_coordinates_cached_per_grid(tmp_path):
    # two fields on two grids, written alternately, each byte for byte the
    # per-row formatter's: the coordinates cached for one grid never leak
    # into the other's file
    rng = np.random.default_rng(31)
    grids = [make_grid(-1, 1, 1, 0.1, 0.1, 0.6), make_grid(-1, 1, 2, 0.0125, 0.05, 0.5)]
    fields = [Field(g, rng.standard_normal((g.nx, g.nt))) for g in grids]
    for k in range(4):
        field = fields[k % 2]
        path, reference = tmp_path / f"{k}.csv", tmp_path / f"{k}.reference.csv"
        write_field_csv(field, path)
        _write_field_csv_per_row(field, reference)
        assert path.read_bytes() == reference.read_bytes()


def _exact_ties(rng):
    """Doubles whose exact decimal has 18 significant digits, the last a 5.

    m / 2**j with m odd is m 5**j / 10**j, whose digits are those of m 5**j
    and end in 5; m 5**j in [1e17, 1e18) gives 18 of them.
    """
    ties = []
    for j in range(2, 26):
        low, high = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        m = rng.integers(low // 2, (high - 1) // 2, 2500) * 2 + 1
        ties.append(m[(m >= low) & (m < high)] / 2.0 ** j)
    ties = np.concatenate(ties)
    return np.where(rng.random(ties.size) < 0.5, ties, -ties)


def test_bulk_digits_match_python_format():
    # write_field_csv's conversion against f"{v:.17g}" (the RuntimeWarning
    # filter of the suite turns any warning of the conversion into an error)
    rng = np.random.default_rng(28)
    signs = rng.choice([-1.0, 1.0], 100_000)
    spread = signs * 10.0 ** rng.uniform(-8, 18, 100_000)
    ties = _exact_ties(rng)
    digits = [Decimal(v).as_tuple().digits for v in ties.tolist()]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    powers = 10.0 ** np.arange(-20, 25)
    bits = rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2 ** 52, 1000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-6, 1e17]
    values = np.concatenate([spread, ties, powers, np.nextafter(powers, 0),
                             np.nextafter(powers, np.inf), bits[np.isfinite(bits)],
                             subnormal, special])
    rows = _format_lines(values)
    assert rows[rows != 0].tobytes().decode().splitlines() == [
        f"{v:.17g}" for v in values.tolist()]


@pytest.mark.parametrize("test_id", ["T1_1", "T1_2"])
def test_refined_fields_match_per_row_formatter(tmp_path, test_id):
    # The 161x81 fields a refined run writes, byte for byte; T1_2's u_true
    # holds 324 values from 6e-18 to 4e-17, which are formatted one at a time.
    report = run_test(test_id, dx=0.0125, dt=0.0125)
    truth = report.truth
    fields = {"u_true": truth.u_true, "m_true": truth.m_true,
              "source_f": truth.spec.f_field,
              "u_pred": Field(report.grid, report.predicted[0])}
    for name, field in fields.items():
        path, reference = tmp_path / f"{name}.csv", tmp_path / f"{name}.reference.csv"
        write_field_csv(field, path)
        _write_field_csv_per_row(field, reference)
        assert path.read_bytes() == reference.read_bytes(), name
