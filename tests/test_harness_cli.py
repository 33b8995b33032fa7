import json

import numpy as np
import pytest

from mspg.cli import main
from mspg.errors import ConfigError
from mspg.fields import example_4
from mspg.grid import build_fine_mesh
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
        ExperimentConfig(nc=4, n=16, pou="fancy")
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
    rows = sweep_experiment(small_config(), [2, 1], [3, 1], [1])
    cells = [(r.m_trial, r.L_test) for r in rows]
    assert cells == [(1, 1), (1, 3), (2, 1), (2, 3)]


def test_golden_small_run():
    # frozen output of the first validated run of this configuration;
    # guards the whole pipeline against silent numerical drift
    rows = run_experiment(small_config())
    row = rows[0]
    assert row.err_ms_pct == pytest.approx(5.322056990049166, rel=1e-9)
    assert row.err_proj_pct == pytest.approx(5.115983396564648, rel=1e-9)
    assert row.min_lambda_excluded == pytest.approx(0.014819469206935871, rel=1e-9)


def test_dump_edge_spectra(tmp_path):
    from mspg.harness import Workspace

    ws = Workspace(small_config())
    _, report = ws.theta(1, 1, 2)
    path = tmp_path / "eigs.csv"
    dump_edge_spectra(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "edge,index,eigenvalue,selected"
    # one line per (edge, mode): 2*nc*(nc-1) edges, r-1 modes each
    assert len(lines) - 1 == len(ws.topology.edges) * (ws.topology.r - 1)


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
    config, _, _, _, _, _ = _build_config(args, sweep=False)
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
    # same table as the one written from the cell's spectral report
    expected = tmp_path / "expected.csv"
    dump_edge_spectra(Workspace(small_config(L=2, eigenproblem=1)).theta(1, 2, 1)[1], expected)
    assert eigs.read_bytes() == expected.read_bytes()


def test_cli_full_res_flag_sets_grids():
    from mspg.cli import _build_config, build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "--example", "3", "--alpha", "0.0005", "--full-res"])
    config, _, _, _, _, _ = _build_config(args, sweep=False)
    assert (config.nc, config.n) == (10, 800)
    args = parser.parse_args(["run", "--example", "1", "--full-res"])
    config, _, _, _, _, _ = _build_config(args, sweep=False)
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
            "--edge-energy", "global",
            "--pou", "hat",
            "--bubble-source", "mass",
            "--projection", "mass",
        ]
    )
    config, _, _, _, _, _ = _build_config(args, sweep=False)
    assert config.trial_restriction == "patch"
    assert config.edge_energy == "global"
    assert config.pou == "hat"
    assert config.bubble_source == "mass"
    assert config.projection == "mass"


def test_cli_validate(capsys):
    code = main(["validate", "--fine", "16", "--coarse", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok:" in out
    assert "FAIL" not in out
