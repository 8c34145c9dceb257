import math

import numpy as np
import pytest

from mfg_forecast.grid import Field, field_from_function, make_grid, \
    read_field_csv, time_slice, write_field_csv


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

    with pytest.raises(ValueError, match="t=0.5"):
        field_from_function(g, bad)


def test_field_shape_mismatch_rejected():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    with pytest.raises(ValueError, match="shape"):
        Field(g, np.zeros((3, 3)))


def test_field_values_immutable():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    f = field_from_function(g, lambda x, t: x)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_time_slice_is_isolated_copy():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    f = field_from_function(g, lambda x, t: x)
    s = time_slice(f, 3)
    assert np.array_equal(s, g.x_nodes())  # t-independent function
    s[0] = 99.0
    assert f.values[0, 3] == -1.0


def test_time_slice_zero_field_and_range_check():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    f = field_from_function(g, lambda x, t: 0.0)
    assert np.all(time_slice(f, 0) == 0.0)
    with pytest.raises(ValueError):
        time_slice(f, g.nt)
    with pytest.raises(ValueError):
        time_slice(f, -1)


def test_initial_slice_of_double_well(t11_case):
    g = t11_case.spec.grid
    expected = (g.x_nodes() ** 2 - 1.0) ** 2
    assert np.allclose(time_slice(t11_case.u_true, 0), expected, atol=1e-15)


def test_csv_roundtrip_bit_exact(tmp_path):
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    rng = np.random.default_rng(3)
    f = Field(g, rng.standard_normal((g.nx, g.nt)))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path, gamma=0.6)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
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
    back = read_field_csv(path, gamma=0.6)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_csv_import_rejects_malformed_files(tmp_path):
    bad_cols = tmp_path / "cols.csv"
    bad_cols.write_text("x,t\n0,0\n")
    with pytest.raises(ValueError, match="columns"):
        read_field_csv(bad_cols)

    partial = tmp_path / "partial.csv"
    partial.write_text("x,t,value\n0,0,1\n1,0,1\n0,1,1\n")  # missing (1,1)
    with pytest.raises(ValueError, match="lattice"):
        read_field_csv(partial)

    skewed = tmp_path / "skewed.csv"
    rows = ["x,t,value"]
    for t in ("0", "1"):
        for x in ("0", "0.4", "1"):  # non-uniform x spacing
            rows.append(f"{x},{t},1")
    skewed.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="non-uniform"):
        read_field_csv(skewed)
