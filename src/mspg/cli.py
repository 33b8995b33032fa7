"""Command line front end.

Subcommands:
  run       solve one configuration (plus optional online iterations)
  sweep     Cartesian sweep over trial/test counts and eigenproblems
  validate  run the built-in invariant suite

Flags mirror a flat key=value config file (``--config``); values given on
the command line win over the file.  Exit codes: 0 success, 2 bad
configuration or usage, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, MspgError
from .fields import DELTA_DEFAULT
from .harness import (
    ExperimentConfig,
    Workspace,
    dump_basis,
    dump_edge_spectra,
    emit_report,
    full_resolution,
    run_experiment,
    sweep_experiment,
)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _add_common(parser: argparse.ArgumentParser, sweep: bool):
    parser.add_argument("--config", help="flat key=value file with these options")
    parser.add_argument("--example", type=int, help="built-in example id (1..5)")
    parser.add_argument("--alpha", type=float, help="field strength / diffusion of the example")
    parser.add_argument("--coarse", type=int, help="coarse subdivisions per side (default 8)")
    parser.add_argument("--fine", type=int, help="fine subdivisions per side (default 64)")
    if sweep:
        parser.add_argument("--trial", type=_int_list, help="comma list of trial counts per node")
        parser.add_argument("--test", type=_int_list, help="comma list of test counts per edge")
        parser.add_argument("--eig", type=_int_list, help="comma list of eigenproblems (1,2)")
    else:
        parser.add_argument("--trial", type=int, help="trial functions per coarse node")
        parser.add_argument("--test", type=int, help="test functions per coarse edge")
        parser.add_argument("--eig", type=int, choices=(1, 2), help="edge eigenproblem")
    parser.add_argument("--online", type=int, help="online enrichment iterations")
    parser.add_argument("--pou", choices=("ms", "hat"), help="partition-of-unity mode")
    parser.add_argument("--projection", choices=("l2", "mass"), help="projection/error norm")
    parser.add_argument("--bubble-source", choices=("l2", "mass"), dest="bubble_source",
                        help="load pairing of the bubble test functions")
    parser.add_argument("--trial-restriction", choices=("submatrix", "patch"),
                        dest="trial_restriction",
                        help="neighborhood operator used by the trial eigenproblem")
    parser.add_argument("--edge-energy", choices=("region", "global"), dest="edge_energy",
                        help="row set of the squared-adjoint edge energy")
    parser.add_argument("--delta", type=float, help="channel strength of example 2")
    parser.add_argument("--raster", help="permeability raster file (example 5)")
    parser.add_argument("--flip-darcy-sign", action="store_true",
                        help="flip the sign of the example-5 velocity")
    parser.add_argument("--infsup", action="store_true", help="also estimate the inf-sup constant")
    parser.add_argument("--full-res", action="store_true",
                        help="use the full-resolution grids of the experiment matrix")
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


# store_true options; a config file sets them with a boolean value
FLAG_KEYS = ("flip_darcy_sign", "infsup", "full_res")
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _merge_config(args: argparse.Namespace, sweep: bool):
    """Fill argparse gaps from the config file, then apply defaults.

    Returns the ``ExperimentConfig`` values (with list-valued m, L and
    eigenproblem), the three flags of ``FLAG_KEYS``, and the output path and
    format.  A config file key that no option reads is a ``ConfigError``.
    """
    file_values = _load_config_file(args.config) if args.config else {}
    name_map = {"nc": "coarse", "n": "fine", "m": "trial", "L": "test",
                "eigenproblem": "eig", "online_iters": "online",
                "raster_path": "raster"}
    read = set()

    def pick(name, cast, default):
        key = name_map.get(name, name)  # argparse dest == config file key
        read.add(key)
        cli = getattr(args, key, None)
        if cli is not None and cli is not False:
            return cli
        if key in file_values:
            try:
                return cast(file_values[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
        return default

    def flag(text):
        if text.lower() not in _BOOLEANS:
            raise ValueError(f"expected a boolean (1/0, true/false), got {text!r}")
        return _BOOLEANS[text.lower()]

    list_cast = _int_list if sweep else int
    values = dict(
        example=pick("example", int, 1),
        alpha=pick("alpha", float, None),
        nc=pick("nc", int, 8),
        n=pick("n", int, 64),
        m=pick("m", list_cast, [1] if sweep else 1),
        L=pick("L", list_cast, [1] if sweep else 1),
        eigenproblem=pick("eigenproblem", list_cast, [1] if sweep else 1),
        online_iters=pick("online_iters", int, 0),
        pou=pick("pou", str, "ms"),
        projection=pick("projection", str, "l2"),
        bubble_source=pick("bubble_source", str, "l2"),
        trial_restriction=pick("trial_restriction", str, "submatrix"),
        edge_energy=pick("edge_energy", str, "region"),
        delta=pick("delta", float, DELTA_DEFAULT),
        raster_path=pick("raster_path", str, None),
    )
    flags = {key: pick(key, flag, False) for key in FLAG_KEYS}
    out = args.out if args.out != "-" else file_values.get("out", "-")
    fmt = args.format if args.format != "csv" else file_values.get("format", "csv")
    unknown = sorted(set(file_values) - read - {"out", "format"})
    if unknown:
        raise ConfigError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
    return values, flags, out, fmt


def _build_config(args: argparse.Namespace, sweep: bool):
    values, flags, out, fmt = _merge_config(args, sweep)
    ms = values.pop("m")
    Ls = values.pop("L")
    eigs = values.pop("eigenproblem")
    if flags["full_res"]:
        from .fields import ALPHA_DEFAULTS

        alpha = values["alpha"]
        if alpha is None:
            alpha = ALPHA_DEFAULTS[values["example"]]
        values["nc"], values["n"] = full_resolution(values["example"], alpha)
    config = ExperimentConfig(
        m=max(ms) if sweep else ms,
        L=max(Ls) if sweep else Ls,
        eigenproblem=max(eigs) if sweep else eigs,
        darcy_sign=-1.0 if flags["flip_darcy_sign"] else 1.0,
        infsup=flags["infsup"],
        **values,
    )
    return config, ms, Ls, eigs, out, fmt


def _cmd_run(args) -> int:
    config, _, _, _, out, fmt = _build_config(args, sweep=False)
    if args.dump_eigs or args.dump_basis:
        ws = Workspace(config)
        rows = ws.run_cell(config.m, config.L, config.eigenproblem, config.online_iters)
        if args.dump_eigs:
            dump_edge_spectra(
                ws.w3_selection(config.L, config.eigenproblem), args.dump_eigs
            )
        if args.dump_basis:
            dump_basis(ws.trial(config.m), args.dump_basis)
    else:
        rows = run_experiment(config)
    text = emit_report(rows, format=fmt, path=out)
    if out in (None, "-"):
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    config, ms, Ls, eigs, out, fmt = _build_config(args, sweep=True)
    rows = sweep_experiment(config, ms, Ls, eigs, online_iters=config.online_iters)
    text = emit_report(rows, format=fmt, path=out)
    if out in (None, "-"):
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    from .validation import validate_suite

    results = validate_suite(n=args.fine or 32, nc=args.coarse or 4)
    failed = False
    for name, ok, detail in results:
        status = "ok" if ok else "FAIL"
        line = f"{status}: {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        failed |= not ok
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mspg",
        description="Multiscale Petrov-Galerkin solver for convection-dominated diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one configuration")
    _add_common(p_run, sweep=False)
    p_run.add_argument("--dump-eigs", help="write the per-edge eigenvalue table (CSV)")
    p_run.add_argument("--dump-basis", help="write the trial matrix (npy or CSV)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep trial/test counts")
    _add_common(p_sweep, sweep=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--fine", type=int, help="fine subdivisions (default 32)")
    p_val.add_argument("--coarse", type=int, help="coarse subdivisions (default 4)")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except MspgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
