import numpy as np
import pytest

from mspg.errors import (
    ConfigError,
    InvalidCoefficientError,
    LocalSolverError,
    RasterParseError,
    UnknownExampleError,
)
from mspg.fields import (
    PermeabilityRaster,
    darcy_velocity,
    example_1,
    example_2,
    example_3,
    example_4,
    field_for_example,
    load_permeability_raster,
    synthetic_channel_raster,
)
from mspg.grid import build_fine_mesh
from mspg.harness import ExperimentConfig


def test_example_1_against_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    alpha = 2
    bx = alpha * sympy.sin(18 * sympy.pi * x) * sympy.cos(18 * sympy.pi * y)
    by = -alpha * sympy.cos(18 * sympy.pi * x) * sympy.sin(18 * sympy.pi * y)
    fld = example_1(2.0)
    for px, py in [(0.25, 0.25), (0.13, 0.41), (0.9, 0.05)]:
        expected = [
            float(bx.subs({x: sympy.Rational(px), y: sympy.Rational(py)}).evalf(30)),
            float(by.subs({x: sympy.Rational(px), y: sympy.Rational(py)}).evalf(30)),
        ]
        got = fld.b(np.array(px), np.array(py))
        assert np.allclose(got.ravel(), expected, atol=1e-12)
    assert fld.kappa(0.3, 0.7) == pytest.approx(0.01)
    assert fld.f(0.3, 0.7) == pytest.approx(1.0)


def test_example_1_divergence_free():
    # complex-step differentiation: machine-precision derivatives of the
    # analytic closures
    fld = example_1(2.0)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.05, 0.95, 50)
    y = rng.uniform(0.05, 0.95, 50)
    h = 1e-20
    dbx_dx = fld.b(x + 1j * h, y)[0].imag / h
    dby_dy = fld.b(x, y + 1j * h)[1].imag / h
    scale = np.abs(fld.b(x, y)).max()
    assert np.abs(dbx_dx + dby_dy).max() <= 1e-6 * scale


def test_example_2_reduces_to_example_1():
    f1 = example_1(2.0)
    f2 = example_2(2.0, delta=0.0)
    x = np.linspace(0.05, 0.95, 13)
    y = np.linspace(0.05, 0.95, 13)
    assert np.allclose(f1.b(x, y), f2.b(x, y), atol=1e-14)


def test_example_3_velocity_matches_stream_function():
    # centered differences of the stream function reproduce the closures
    def H(x, y):
        return np.sin(5 * np.pi * x) * np.sin(6 * np.pi * y) / (60 * np.pi) + 0.005 * (
            x + y
        )

    fld = example_3(1e-3)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.1, 0.9, 40)
    y = rng.uniform(0.1, 0.9, 40)
    d = 1e-5
    dH_dy = (H(x, y + d) - H(x, y - d)) / (2 * d)
    dH_dx = (H(x + d, y) - H(x - d, y)) / (2 * d)
    b = fld.b(x, y)
    assert np.abs(b[0] + dH_dy).max() <= 1e-8
    assert np.abs(b[1] - dH_dx).max() <= 1e-8
    assert fld.kappa(0.5, 0.5) == pytest.approx(1e-3)


def test_example_4_channel_structure():
    fld = example_4(200.0)
    x = np.linspace(0, 1, 7)
    b = fld.b(x, np.full_like(x, 0.3))
    assert np.allclose(b[1], 0.0)
    assert np.allclose(b[0], 200.0 * np.sin(18 * np.sqrt(2) * np.pi * 0.3))


def test_unknown_example_id():
    with pytest.raises(UnknownExampleError):
        ExperimentConfig(example=7)
    cfg = ExperimentConfig(example=1)
    cfg.example = 9  # bypass construction-time validation
    with pytest.raises(UnknownExampleError):
        field_for_example(cfg)


def test_darcy_uniform_permeability_exact():
    # kappa = 1 with bilinear boundary data: p = x*y is in the discrete
    # space and harmonic, so the solve reproduces it exactly; b = (y, x)
    mesh = build_fine_mesh(16)
    raster = PermeabilityRaster(width=16, height=16, values=np.ones((16, 16)))
    vel = darcy_velocity(raster, mesh)
    nodes = np.arange(mesh.num_nodes)
    x, y = mesh.node_coords(nodes)
    assert np.abs(vel.p_nodes - x * y).max() <= 1e-10
    rng = np.random.default_rng(2)
    px = rng.uniform(0, 1, 30)
    py = rng.uniform(0, 1, 30)
    b = vel(px, py)
    assert np.abs(b[0] - py).max() <= 1e-10
    assert np.abs(b[1] - px).max() <= 1e-10


def test_darcy_layered_flux_continuity():
    # two vertical layers with boundary data from the 1D harmonic profile:
    # the piecewise-linear profile is in the discrete space, so the
    # horizontal flux kappa * dp/dx is the same constant everywhere
    n = 16
    k1, k2, split = 1.0, 5.0, 0.5
    c = 1.0 / (split / k1 + (1 - split) / k2)

    def profile(x, y):
        x = np.asarray(x, dtype=float)
        return np.where(x <= split, c * x / k1, c * split / k1 + c * (x - split) / k2)

    values = np.where((np.arange(n) + 0.5) / n <= split, k1, k2)
    raster = PermeabilityRaster(width=n, height=n, values=np.tile(values, (n, 1)))
    mesh = build_fine_mesh(n)
    vel = darcy_velocity(raster, mesh, boundary=profile)
    rng = np.random.default_rng(3)
    px = rng.uniform(0.01, 0.99, 40)
    py = rng.uniform(0.01, 0.99, 40)
    b = vel(px, py)
    assert np.abs(b[0] - c).max() <= 1e-9
    assert np.abs(b[1]).max() <= 1e-9


def test_darcy_sign_flip():
    mesh = build_fine_mesh(8)
    raster = PermeabilityRaster(width=8, height=8, values=np.ones((8, 8)))
    plus = darcy_velocity(raster, mesh, sign=1.0)
    minus = darcy_velocity(raster, mesh, sign=-1.0)
    assert np.allclose(plus(0.3, 0.7), -minus(0.3, 0.7))


def test_darcy_rejects_nonpositive_raster():
    mesh = build_fine_mesh(4)
    values = np.ones((4, 4))
    values[2, 1] = 0.0
    with pytest.raises(InvalidCoefficientError):
        darcy_velocity(PermeabilityRaster(4, 4, values), mesh)


def test_darcy_rejects_nan_raster():
    mesh = build_fine_mesh(4)
    values = np.ones((4, 4))
    values[1, 3] = np.nan
    with pytest.raises(InvalidCoefficientError):
        darcy_velocity(PermeabilityRaster(4, 4, values), mesh)


def test_darcy_pressure_solve_failure_is_typed():
    mesh = build_fine_mesh(4)
    raster = PermeabilityRaster(4, 4, np.ones((4, 4)))
    with pytest.raises(LocalSolverError, match="pressure"):
        darcy_velocity(raster, mesh, boundary=lambda x, y: np.full(np.shape(x), np.nan))


def test_darcy_rejects_mismatched_raster():
    mesh = build_fine_mesh(8)
    with pytest.raises(ConfigError):
        darcy_velocity(PermeabilityRaster(4, 4, np.ones((4, 4))), mesh)


def test_raster_loader_roundtrip(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("2 2\n1 500\n500 1\n")
    raster = load_permeability_raster(path)
    assert (raster.width, raster.height) == (2, 2)
    assert raster.values.tolist() == [[1.0, 500.0], [500.0, 1.0]]


def test_raster_loader_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_permeability_raster(tmp_path / "nope.txt")


@pytest.mark.parametrize(
    "content,line",
    [
        ("2\n1 2 3 4\n", 1),
        ("2 2\n1 oops\n3 4\n", 2),
        ("2 2\n1 2\n", 2),
        ("2 2\n1 2 3 4 5\n", 2),
        ("2 2\n1 2\n3 nan\n", 3),
        ("2 2\n1 inf\n3 4\n", 2),
        ("2 2\n1 2\n-inf 4\n", 3),
    ],
)
def test_raster_loader_parse_errors(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(RasterParseError) as err:
        load_permeability_raster(path)
    assert err.value.line == line


def test_synthetic_raster_contrast():
    raster = synthetic_channel_raster(64)
    assert raster.values.shape == (64, 64)
    assert raster.values.min() == 1.0
    assert raster.values.max() == 500.0
    # channels connect the left and right boundary
    mask = raster.values == 500.0
    assert mask[:, 0].any() and mask[:, -1].any()


def test_field_for_example_5_runs():
    cfg = ExperimentConfig(example=5, nc=4, n=16, L=1)
    mesh = build_fine_mesh(16)
    fld = field_for_example(cfg, mesh)
    b = fld.b(np.array([0.5]), np.array([0.5]))
    assert b.shape == (2, 1)
    assert np.isfinite(b).all()
