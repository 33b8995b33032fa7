import csv
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from mspg import trial_space
from mspg.cli import build_parser, main
from mspg.errors import ConfigError
from mspg.fields import example_4
from mspg.grid import build_coarse_topology, build_fine_mesh
from mspg.harness import (
    ExperimentConfig,
    cell_peclet,
    dump_edge_spectra,
    emit_report,
    full_resolution,
    render_csv,
    run_experiment,
    sweep_experiment,
)


def small_config(**kw):
    base = dict(example=1, alpha=2.0, nc=4, n=16, m=1, L=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(nc=5, n=16)  # 5 does not divide 16
    with pytest.raises(ConfigError):
        ExperimentConfig(nc=4, n=16, L=4)  # L above r-1
    with pytest.raises(ConfigError):
        ExperimentConfig(nc=4, n=16, eigenproblem=3)
    with pytest.raises(ConfigError):
        ExperimentConfig(nc=4, n=16, trial_restriction="other")


def test_alpha_defaults():
    assert ExperimentConfig(example=1, nc=4, n=16).alpha == 2.0
    assert ExperimentConfig(example=4, nc=4, n=16).alpha == 200.0
    assert ExperimentConfig(example=5, nc=4, n=16).alpha == pytest.approx(1 / 250)


def test_full_resolution_map():
    assert full_resolution(1, 2.0) == (10, 200)
    assert full_resolution(3, 1e-3) == (10, 400)
    assert full_resolution(3, 5e-4) == (10, 800)
    assert full_resolution(5, 1 / 250) == (10, 200)
    assert full_resolution(5, 1 / 500) == (10, 400)


def test_peclet_guard_warns():
    assert cell_peclet(build_fine_mesh(8), example_4(200.0)) > 2.0
    with pytest.warns(UserWarning, match="cell Peclet"):
        from mspg.harness import Workspace

        Workspace(ExperimentConfig(example=4, nc=4, n=8, L=1))


def test_run_experiment_emits_online_rows():
    rows = run_experiment(small_config(online_iters=2))
    assert [r.online_iter for r in rows] == [0, 1, 2]
    assert rows[-1].err_ms_pct <= rows[0].err_ms_pct + 1e-9


def test_emit_report_single_row_csv():
    rows = run_experiment(small_config())
    text = emit_report(rows, format="csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("example,alpha,H,h,m_trial,L_test,eigenproblem")


def test_emit_report_json_roundtrip(tmp_path):
    rows = run_experiment(small_config())
    path = tmp_path / "rows.json"
    emit_report(rows, format="json", path=path)
    loaded = json.loads(path.read_text())
    assert len(loaded) == 1
    for key in ("example", "err_ms_pct", "err_proj_pct", "min_lambda_excluded"):
        assert key in loaded[0]
    assert loaded[0]["err_ms_pct"] == rows[0].err_ms_pct


def test_emit_report_infinite_excluded_eigenvalue(tmp_path):
    # full edge selection leaves nothing excluded; both formats must carry
    # the infinity through a round trip
    rows = run_experiment(small_config(L=3))
    assert rows[0].min_lambda_excluded == float("inf")
    csv_row = emit_report(rows, format="csv").strip().split("\n")[1]
    assert csv_row.split(",")[11] == "inf"
    path = tmp_path / "inf.json"
    emit_report(rows, format="json", path=path)
    assert json.loads(path.read_text())[0]["min_lambda_excluded"] == float("inf")


def test_emit_report_unknown_format():
    rows = run_experiment(small_config())
    with pytest.raises(ConfigError):
        emit_report(rows, format="xml")


def test_sweep_deterministic_bytes():
    cfg = small_config()
    r1 = sweep_experiment(cfg, [1, 2], [1, 3], [1, 2])
    r2 = sweep_experiment(cfg, [1, 2], [1, 3], [1, 2])
    assert render_csv(r1) == render_csv(r2)
    assert len(r1) == 8


def test_sweep_row_order():
    # the sweep solves per (m, eigenproblem) group but emits (m, L, eig) order
    rows = sweep_experiment(small_config(), [2, 1], [3, 1, 2], [2, 1], online_iters=1)
    keys = [(r.m_trial, r.L_test, r.eigenproblem, r.online_iter) for r in rows]
    assert keys == [
        (m, L, p, it) for m in (1, 2) for L in (1, 2, 3) for p in (1, 2) for it in (0, 1)
    ]
    # each cell's rows are the ones of the cell run on its own
    for i in range(0, len(rows), 2):
        m, L, problem, _ = keys[i]
        alone = run_experiment(small_config(m=m, L=L, eigenproblem=problem, online_iters=1))
        for mine, theirs in zip(rows[i : i + 2], alone):
            for field in ("err_ms_pct", "w_norm", "min_lambda_excluded"):
                assert getattr(mine, field) == pytest.approx(getattr(theirs, field), rel=1e-10)


def test_sweep_orthonormalizes_once_per_trial_count_and_eigenproblem(tmp_path, monkeypatch):
    # every test count of a (m, eigenproblem) group is a leading block of the
    # largest one's basis: 2 offline kernel calls here, not one per cell (4)
    from mspg import test_space

    calls = []
    kernel = test_space.orthonormalize_columns

    def counting_kernel(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(test_space, "orthonormalize_columns", counting_kernel)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--example", "1", "--alpha", "2", "--coarse", "4", "--fine", "16",
            "--trial", "1", "--test", "1,3", "--eig", "1,2", "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 4
    assert len(calls) == 2


def test_sweep_factors_each_block_interior_once(monkeypatch):
    # W1 for every m, W2, the partition of unity, the trial snapshots of the
    # one-block (corner) neighborhoods, whose interior is their block's, and
    # every edge's snapshots and extensions under both eigenproblems solve
    # with the Workspace's block factors
    from mspg import harness, numerics

    factored = []  # the matrix of every factorization made

    class Recording(numerics.CheckedFactor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            factored.append(self.K)

    monkeypatch.setattr(numerics, "CheckedFactor", Recording)
    monkeypatch.setattr(trial_space, "CheckedFactor", Recording)
    workspaces = []
    real_workspace = harness.Workspace

    def recording_workspace(config):
        workspaces.append(real_workspace(config))
        return workspaces[-1]

    monkeypatch.setattr(harness, "Workspace", recording_workspace)
    config = small_config(n=32, online_iters=1)
    rows = sweep_experiment(config, [1, 2], [1, 3], [1, 2])
    assert len(rows) == 2 * 2 * 2 * 2
    (ws,) = workspaces
    A = ws.op.A

    def same(K, J):
        return K.shape == J.shape and (K != J).nnz == 0

    for block in ws.topology.blocks:
        A_ii = A[block.interior][:, block.interior]
        count = sum(same(K, A_ii) or same(K, A_ii.T) for K in factored)
        assert count == 1, block.index
    assert len(ws.block_factors) == len(ws.topology.blocks)


def test_cli_singular_block_interior_exits_3(monkeypatch, capsys):
    # the interior operator of block 5 loses its interior couplings in the
    # row of its first dof (the global operator stays regular): the block
    # factorization fails with a LocalSolverError naming the block
    from dataclasses import replace

    from mspg import harness
    from mspg.errors import LocalSolverError

    real_assemble = harness.assemble

    def singular_block(mesh, field):
        op = real_assemble(mesh, field)
        interior = build_coarse_topology(mesh, 4).blocks[5].interior
        A = op.A.tolil()
        A[interior[0], interior] = 0.0
        return replace(op, A=A.tocsr())

    monkeypatch.setattr(harness, "assemble", singular_block)
    with pytest.raises(LocalSolverError, match=r"\(block 5\)"):
        harness.Workspace(small_config())
    code = main(["run", "--example", "1", "--alpha", "2", "--coarse", "4", "--fine", "16"])
    assert code == 3
    err = capsys.readouterr().err
    assert "block 5" in err and "singular" in err


@pytest.mark.parametrize(
    "option, values, message",
    [
        ("--eig", "0,1", "eigenproblem must be 1 or 2, got 0"),
        ("--test", "0,1", "test count L=0 outside 1..3"),
        ("--trial", "0,1", "trial count m=0 must be >= 1"),
    ],
    ids=["eig", "test", "trial"],
)
def test_cli_sweep_checks_every_cell(capsys, monkeypatch, option, values, message):
    # the largest value of each list is valid; the smallest is not
    from mspg import harness

    def no_workspace(*args, **kwargs):
        raise AssertionError("built a workspace before every cell was checked")

    monkeypatch.setattr(harness, "Workspace", no_workspace)
    argv = ["sweep", "--example", "1", "--coarse", "4", "--fine", "16", option, values]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_golden_small_run(capsys):
    # frozen output of the first validated run of this configuration;
    # guards the whole pipeline against silent numerical drift
    rows = run_experiment(small_config())
    row = rows[0]
    assert row.err_ms_pct == pytest.approx(5.322056990049166, rel=1e-9)
    assert row.err_proj_pct == pytest.approx(5.115983396564648, rel=1e-9)
    assert row.min_lambda_excluded == pytest.approx(0.014819469206935871, rel=1e-9)
    # every field of every row of the benchmark's smoke sweep, which runs
    # W1, W2, both eigenproblems, an online sweep and the inf-sup estimate,
    # against the benchmark's reference rows
    args = "sweep --example 1 --alpha 2 --coarse 4 --fine 16 --trial 1 --test 1,3 --eig 1,2"
    assert main(args.split() + ["--online", "1", "--infsup"]) == 0
    got = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    with open(Path(__file__).resolve().parents[1] / "perfbench/reference/smoke.csv") as fh:
        want = list(csv.DictReader(fh))
    assert len(got) == len(want) == 8
    for mine, ref in zip(got, want):
        assert list(mine) == list(ref)
        for name, value in ref.items():
            if value == "":
                assert mine[name] == value, name
            else:
                assert float(mine[name]) == pytest.approx(float(value), rel=1e-10, abs=0.0), name


def test_dump_edge_spectra(tmp_path):
    from mspg.harness import Workspace

    ws = Workspace(small_config(L=2))
    spectra = ws.edge_spectra(2, 2)
    path = tmp_path / "eigs.csv"
    dump_edge_spectra(spectra, 2, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "edge,index,eigenvalue,selected"
    # one line per (edge, mode): 2*nc*(nc-1) edges, r-1 modes each
    r = ws.topology.r
    assert len(lines) - 1 == len(ws.topology.edges) * (r - 1)
    for line, (k, i) in zip(lines[1:], itertools.product(range(len(spectra)), range(r - 1))):
        edge, index, value, selected = line.split(",")
        assert (int(edge), int(index)) == (k, i)
        assert float(value) == spectra[k].eigenvalues[i]
        assert selected == ("1" if i < 2 else "0")
    # the cell reports the smallest of the edges' first modes left out
    first_out = [float(v) for _, i, v, _ in (line.split(",") for line in lines[1:]) if i == "2"]
    (row,) = ws.run_cell(1, 2, 2)
    assert row.min_lambda_excluded == min(first_out)


def test_cli_run_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        [
            "run",
            "--example", "1",
            "--coarse", "4",
            "--fine", "16",
            "--trial", "1",
            "--test", "1",
            "--eig", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2


def test_cli_stdout_and_json(capsys):
    code = main(
        ["run", "--example", "1", "--coarse", "4", "--fine", "16", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["example"] == 1


def test_cli_sweep_lists(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--example", "1",
            "--coarse", "4",
            "--fine", "16",
            "--trial", "1,2",
            "--test", "1,3",
            "--eig", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 5


def test_cli_repeated_sweeps_byte_identical(tmp_path):
    args = [
        "sweep",
        "--example", "1",
        "--coarse", "4",
        "--fine", "16",
        "--trial", "1",
        "--test", "1,2,3",
        "--eig", "1,2",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "example=1\ncoarse=4\nfine=16\ntrial=1\ntest=2\neig=2\n# comment\n"
    )
    code = main(["run", "--config", str(cfg)])
    assert code == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert row.split(",")[4:7] == ["1", "2", "2"]


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("example=1\ncoarse=4\nfine=16\ntrial=1\ntest=1\neig=1\n")
    code = main(["run", "--config", str(cfg), "--test", "3"])
    assert code == 0
    _, row = capsys.readouterr().out.strip().split("\n")
    assert row.split(",")[5] == "3"


def test_cli_config_file_flags(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("example=1\ncoarse=4\nfine=16\ninfsup=1\n")
    assert main(["run", "--config", str(cfg)]) == 0
    _, row = capsys.readouterr().out.strip().split("\n")
    assert row.split(",")[-1] != ""  # infsup_est is reported

    from mspg.cli import _build_config, build_parser

    cfg.write_text("example=5\nflip_darcy_sign=true\nfull_res=yes\ninfsup=0\n")
    args = build_parser().parse_args(["run", "--config", str(cfg)])
    config, _, _, _, _ = _build_config(args, sweep=False)
    assert config.darcy_sign == -1.0
    assert (config.nc, config.n) == full_resolution(5, config.alpha)
    assert config.infsup is False


@pytest.mark.parametrize(
    "line, message",
    [
        ("tset=2", "unknown config key(s) tset"),
        ("infsup=maybe", "expected a boolean"),
        ("coarse 4", "expected key=value"),
        ("coarse=four", "config key coarse"),
    ],
)
def test_cli_config_file_rejects_bad_keys(tmp_path, capsys, line, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"example=1\ncoarse=4\nfine=16\n{line}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value",
    [("alpha", "nan"), ("alpha", "inf"), ("delta", "nan"), ("delta", "-inf")],
)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_cli_rejects_non_finite_parameters(tmp_path, capsys, monkeypatch, option, value, source):
    from mspg import harness

    def no_workspace(*args, **kwargs):
        raise AssertionError("built a workspace from a non-finite parameter")

    monkeypatch.setattr(harness, "Workspace", no_workspace)
    argv = ["run", "--example", "2", "--coarse", "4", "--fine", "16"]
    if source == "flag":
        argv.append(f"--{option}={value}")
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{option}={value}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert f"{option} must be finite" in capsys.readouterr().err


def _run_rejected(tmp_path, monkeypatch, base, option, value, source):
    """Exit code of ``run`` with one option given by flag (``--option=value``),
    by flag and a separate value token (``split``) or by config file;
    building a Workspace fails the test."""
    from mspg import harness

    def no_workspace(*args, **kwargs):
        raise AssertionError("built a workspace from a rejected configuration")

    monkeypatch.setattr(harness, "Workspace", no_workspace)
    argv = ["run"] + base + ["--coarse", "4", "--fine", "16"]
    if source == "flag":
        argv.append(f"--{option}" if value is None else f"--{option}={value}")
    elif source == "split":
        argv += [f"--{option}", value]
    else:
        key = option.replace("-", "_")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key}={'1' if value is None else value}\n")
        argv += ["--config", str(cfg)]
    return main(argv)


@pytest.mark.parametrize(
    "example, alpha", [(3, "0"), (3, "-1e-3"), (5, "-1"), (5, "0.0")]
)
@pytest.mark.parametrize("source", ["flag", "file", "split"])
def test_cli_rejects_non_positive_diffusion(tmp_path, capsys, monkeypatch, example, alpha, source):
    base = ["--example", str(example)]
    assert _run_rejected(tmp_path, monkeypatch, base, "alpha", alpha, source) == 2
    err = capsys.readouterr().err
    assert f"alpha is the diffusion of example {example} and must be > 0" in err


def test_cli_takes_negative_values_with_an_exponent(tmp_path):
    # argparse's own negative-number pattern has no exponent
    out = tmp_path / "r.csv"
    argv = ["run", "--example", "1", "--alpha", "-1e-3", "--coarse", "4", "--fine", "16"]
    assert main(argv + ["--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["alpha"] == "-0.001"
    args = build_parser().parse_args(["sweep", "--example", "2", "--delta", "-1e-3"])
    assert args.delta == -1e-3


@pytest.mark.parametrize(
    "option, value, only",
    [("raster", "/nonexistent", 5), ("delta", "0.3", 2), ("flip-darcy-sign", None, 5)],
)
@pytest.mark.parametrize("example", [1, 3])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_cli_rejects_options_of_another_example(
    tmp_path, capsys, monkeypatch, option, value, only, example, source
):
    base = ["--example", str(example)]
    assert _run_rejected(tmp_path, monkeypatch, base, option, value, source) == 2
    assert f"applies to example {only} only" in capsys.readouterr().err


def test_example_only_options_keep_their_examples():
    assert ExperimentConfig(example=2).delta == pytest.approx(2**0.5 / 4)
    assert ExperimentConfig(example=1).delta is None
    ExperimentConfig(example=2, delta=0.3)
    ExperimentConfig(example=5, raster_path="raster.txt", darcy_sign=-1.0)
    ExperimentConfig(example=3, alpha=1e-3)
    ExperimentConfig(example=1, alpha=0.0)  # a velocity strength, not a diffusion


def test_cli_bad_config_exit_code(capsys):
    code = main(
        ["run", "--example", "1", "--coarse", "5", "--fine", "16"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_unwritable_output_exit_code(tmp_path):
    code = main(
        [
            "run",
            "--example", "1",
            "--coarse", "4",
            "--fine", "16",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        ]
    )
    assert code == 4


def test_cli_dump_outputs(tmp_path):
    eigs = tmp_path / "eigs.csv"
    basis = tmp_path / "basis.npy"
    code = main(
        [
            "run",
            "--example", "1",
            "--coarse", "4",
            "--fine", "16",
            "--test", "2",
            "--out", str(tmp_path / "r.csv"),
            "--dump-eigs", str(eigs),
            "--dump-basis", str(basis),
        ]
    )
    assert code == 0
    assert eigs.read_text().startswith("edge,index,eigenvalue,selected")
    loaded = np.load(basis)
    assert loaded.shape[0] == 15 * 15  # (n-1)^2 dofs


def test_cli_dump_eigs_orthonormalizes_once(tmp_path, monkeypatch):
    from mspg import test_space
    from mspg.harness import Workspace

    calls = []
    kernel = test_space.orthonormalize_columns

    def counting_kernel(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(test_space, "orthonormalize_columns", counting_kernel)
    eigs = tmp_path / "eigs.csv"
    argv = ["run", "--example", "1", "--coarse", "4", "--fine", "16", "--test", "2"]
    assert main(argv + ["--out", str(tmp_path / "r.csv"), "--dump-eigs", str(eigs)]) == 0
    assert len(calls) == 1
    # same table as the one written from the workspace's spectra
    expected = tmp_path / "expected.csv"
    spectra = Workspace(small_config(L=2, eigenproblem=1)).edge_spectra(1, 2)
    dump_edge_spectra(spectra, 2, expected)
    assert eigs.read_bytes() == expected.read_bytes()


def test_cli_full_res_flag_sets_grids():
    from mspg.cli import _build_config, build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "--example", "3", "--alpha", "0.0005", "--full-res"])
    config, _, _, _, _ = _build_config(args, sweep=False)
    assert (config.nc, config.n) == (10, 800)
    args = parser.parse_args(["run", "--example", "1", "--full-res"])
    config, _, _, _, _ = _build_config(args, sweep=False)
    assert (config.nc, config.n) == (10, 200)


def test_cli_knob_flags_reach_config():
    from mspg.cli import _build_config, build_parser

    args = build_parser().parse_args(
        [
            "run",
            "--example", "1",
            "--coarse", "4",
            "--fine", "16",
            "--trial-restriction", "patch",
        ]
    )
    config, _, _, _, _ = _build_config(args, sweep=False)
    assert config.trial_restriction == "patch"


# retired options, each with a value it once accepted
REMOVED_KNOBS = {"pou": "hat", "bubble_source": "hat", "projection": "hat", "edge_energy": "region"}


@pytest.mark.parametrize("option", list(REMOVED_KNOBS))
def test_cli_removed_knobs_exit_2(tmp_path, capsys, option):
    flag, value = "--" + option.replace("_", "-"), REMOVED_KNOBS[option]
    argv = ["run", "--example", "1", "--coarse", "4", "--fine", "16"]
    assert main(argv + [flag, value]) == 2
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{option}={value}\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"unknown config key(s) {option}" in capsys.readouterr().err


def test_cli_format_flag_wins_over_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("example=1\ncoarse=4\nfine=16\nformat=json\n")
    assert main(["run", "--config", str(cfg), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("example,alpha,H,h,")


def test_cli_stdout_flag_wins_over_file(tmp_path, capsys):
    path = tmp_path / "from_file.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"example=1\ncoarse=4\nfine=16\nout={path}\n")
    assert main(["run", "--config", str(cfg), "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("example,alpha,H,h,")
    assert not path.exists()


def test_cli_bad_file_format_exits_before_solving(tmp_path, capsys, monkeypatch):
    from mspg import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the configuration was checked")

    monkeypatch.setattr(cli, "run_experiment", no_solve)
    monkeypatch.setattr(cli, "Workspace", no_solve)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("example=1\ncoarse=4\nfine=16\nformat=xml\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config key format" in capsys.readouterr().err


# one non-default value per ExperimentConfig field, valid with coarse=4, fine=16;
# darcy_sign is set by the --flip-darcy-sign switch instead
FIELD_SAMPLES = {
    "example": "2",
    "alpha": "0.5",
    "nc": "2",
    "n": "8",
    "m": "2",
    "L": "3",
    "eigenproblem": "2",
    "online_iters": "1",
    "trial_restriction": "patch",
    "delta": "0.25",
    "raster_path": "raster.txt",
    "infsup": "1",
}
EXAMPLE_OF = {"delta": ["example=2"], "raster_path": ["example=5"]}


def test_every_config_field_has_a_flag_and_a_config_key(tmp_path):
    from dataclasses import fields

    from mspg.cli import _build_config, build_parser

    assert set(FIELD_SAMPLES) == {f.name for f in fields(ExperimentConfig)} - {"darcy_sign"}
    parser = build_parser()
    cfg = tmp_path / "exp.cfg"

    def config(argv, lines):
        cfg.write_text("".join(line + "\n" for line in lines))
        args = parser.parse_args(["run", "--config", str(cfg)] + argv)
        return _build_config(args, sweep=False)[0]

    options = {a.dest: a for a in parser.parse_args(["run"]).options}
    for field, text in FIELD_SAMPLES.items():
        flag = options[field].option_strings[-1]
        key = flag.lstrip("-").replace("-", "_")
        # a small grid, less the grid option under test, and the one example
        # that reads an example-only option
        grid = [line for line in ("coarse=4", "fine=16") if line.split("=")[0] != key]
        grid += EXAMPLE_OF.get(field, [])
        value = [] if options[field].nargs == 0 else [text]
        from_flag = config([flag] + value, grid)
        from_file = config([], grid + [f"{key}={text}"])
        default = getattr(ExperimentConfig(nc=4, n=16), field)
        assert getattr(from_flag, field) == getattr(from_file, field) != default, field


def test_cli_empty_config_file_gives_default_config(tmp_path):
    from mspg.cli import _build_config, build_parser

    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    args = build_parser().parse_args(["run", "--config", str(cfg)])
    assert _build_config(args, sweep=False)[0] == ExperimentConfig()


@pytest.mark.parametrize("grids", [["--fine", "0", "--coarse", "0"], ["--coarse", "0"]])
def test_cli_validate_rejects_zero_grids(capsys, grids):
    assert main(["validate"] + grids) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_validate(capsys):
    code = main(["validate", "--fine", "16", "--coarse", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok:" in out
    assert "FAIL" not in out


def test_cli_validate_on_the_smallest_grids(capsys):
    # the manufactured-solution rate reads grids 4 and 8: grid 2, half of
    # the fine one, has a single interior node
    assert main(["validate", "--fine", "4", "--coarse", "2"]) == 0
    assert "FAIL" not in capsys.readouterr().out
