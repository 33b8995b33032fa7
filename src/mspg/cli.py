"""Command line front end.

Subcommands:
  run       solve one configuration (plus optional online iterations)
  sweep     Cartesian sweep over trial/test counts and eigenproblems
  validate  run the built-in invariant suite

Every ``run``/``sweep`` option but ``run``'s ``--dump-eigs`` and
``--dump-basis`` can also come from a flat key=value config file
(``--config``), whose key is the long flag with ``-`` replaced by ``_``.
Values given on the command line win over the file; an option that neither
sets keeps the ``ExperimentConfig`` default.  Exit codes: 0 success,
2 bad configuration or usage, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import ConfigError, MspgError
from .harness import (
    CHOICES,
    ExperimentConfig,
    Workspace,
    dump_basis,
    dump_edge_spectra,
    emit_report,
    full_resolution,
    run_experiment,
    sweep_experiment,
)


# argparse reads a token as a value, not an option, when it looks like a
# negative number; its own pattern has no exponent, so "-1e-3" would be taken
# for an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _add_common(parser: argparse.ArgumentParser, sweep: bool) -> list[argparse.Action]:
    """Add the run/sweep options to ``parser`` and return them.

    An option's ``dest`` is the ``ExperimentConfig`` field it sets, apart
    from the switches ``flip_darcy_sign`` and ``full_res`` and the
    ``emit_report`` arguments ``path`` and ``format``.  Every default is
    None, which means "not set".
    """
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument("--config", help="flat key=value file with these options")
    add = parser.add_argument
    count = _int_list if sweep else int
    per = "comma list of " if sweep else ""
    return [
        add("--example", type=int, help="built-in example id (1..5)"),
        add("--alpha", type=float, help="field strength / diffusion of the example"),
        add("--coarse", type=int, dest="nc", help="coarse subdivisions per side"),
        add("--fine", type=int, dest="n", help="fine subdivisions per side"),
        add("--trial", type=count, dest="m", help=per + "trial functions per coarse node"),
        add("--test", type=count, dest="L", help=per + "test functions per coarse edge"),
        add("--eig", type=count, dest="eigenproblem", choices=None if sweep else (1, 2),
            help=per + "edge eigenproblem (1, 2)"),
        add("--online", type=int, dest="online_iters", help="online enrichment iterations"),
        add("--trial-restriction", choices=CHOICES["trial_restriction"],
            help="neighborhood operator used by the trial eigenproblem"),
        add("--edge-energy", choices=CHOICES["edge_energy"],
            help="row set of the squared-adjoint edge energy"),
        add("--delta", type=float, help="channel strength of example 2"),
        add("--raster", dest="raster_path", help="permeability raster file (example 5)"),
        add("--flip-darcy-sign", action="store_true", default=None,
            help="flip the sign of the example-5 velocity"),
        add("--infsup", action="store_true", default=None,
            help="also estimate the inf-sup constant"),
        add("--full-res", action="store_true", default=None,
            help="use the full-resolution grids of the experiment matrix"),
        add("--out", dest="path", help="output path ('-' or unset for stdout)"),
        add("--format", choices=("csv", "json"), help="report format (csv if unset)"),
    ]


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


# values a config file may give a store_true switch
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _file_value(action: argparse.Action, key: str, text: str):
    """Cast and check one config-file value as the command line would."""
    try:
        if action.nargs == 0:  # store_true switch
            if text.lower() not in _BOOLEANS:
                raise ValueError(f"expected a boolean (1/0, true/false), got {text!r}")
            return _BOOLEANS[text.lower()]
        value = action.type(text) if action.type else text
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        allowed = ", ".join(map(str, action.choices))
        raise ConfigError(f"config key {key}: {value!r} not in ({allowed})")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    """Option values by ``dest``: the command line's, else the config file's.

    An option that neither sets is left out, so its default applies.  Every
    file value is checked, even one a flag overrides; a file key that names
    no option is a ``ConfigError``.
    """
    file_values = _load_config_file(args.config) if args.config else {}
    by_key = {a.option_strings[-1].lstrip("-").replace("-", "_"): a for a in args.options}
    unknown = sorted(set(file_values) - set(by_key))
    if unknown:
        raise ConfigError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
    values = {
        by_key[key].dest: _file_value(by_key[key], key, text)
        for key, text in file_values.items()
    }
    for action in args.options:
        if getattr(args, action.dest) is not None:
            values[action.dest] = getattr(args, action.dest)
    return values


def _build_config(args: argparse.Namespace, sweep: bool):
    """The ``ExperimentConfig`` of a run or sweep, the sweep's trial, test and
    eigenproblem lists (the cell's own counts for ``run``), and the
    ``emit_report`` output arguments that were set."""
    values = _merge_config(args)
    output = {key: values.pop(key) for key in ("path", "format") if key in values}
    if values.pop("flip_darcy_sign", False):
        values["darcy_sign"] = -1.0
    if values.pop("full_res", False):
        # resolves the example's default alpha and rejects an unknown example
        probe = ExperimentConfig(**{k: values[k] for k in ("example", "alpha") if k in values})
        values["nc"], values["n"] = full_resolution(probe.example, probe.alpha)
    if not sweep:
        config = ExperimentConfig(**values)
        return config, config.m, config.L, config.eigenproblem, output
    # a sweep is configured with its largest cell; an unset list holds the default
    names = ("m", "L", "eigenproblem")
    lists = {name: values.pop(name) for name in names if name in values}
    config = ExperimentConfig(**values, **{name: max(v) for name, v in lists.items()})
    ms, Ls, eigs = (lists.get(name, [getattr(config, name)]) for name in names)
    return config, ms, Ls, eigs, output


def _emit(rows, output: dict) -> int:
    text = emit_report(rows, **output)
    if output.get("path") in (None, "-"):
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    config, _, _, _, output = _build_config(args, sweep=False)
    if args.dump_eigs or args.dump_basis:
        ws = Workspace(config)
        rows = ws.run_cell(config.m, config.L, config.eigenproblem, config.online_iters)
        if args.dump_eigs:
            spectra = ws.edge_spectra(config.eigenproblem, config.L)
            dump_edge_spectra(spectra, config.L, args.dump_eigs)
        if args.dump_basis:
            dump_basis(ws.trial(config.m), args.dump_basis)
    else:
        rows = run_experiment(config)
    return _emit(rows, output)


def _cmd_sweep(args) -> int:
    config, ms, Ls, eigs, output = _build_config(args, sweep=True)
    rows = sweep_experiment(config, ms, Ls, eigs, online_iters=config.online_iters)
    return _emit(rows, output)


def _cmd_validate(args) -> int:
    from .validation import validate_suite

    results = validate_suite(n=args.fine, nc=args.coarse)
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
    options = _add_common(p_run, sweep=False)
    p_run.add_argument("--dump-eigs", help="write the per-edge eigenvalue table (CSV)")
    p_run.add_argument("--dump-basis", help="write the trial matrix (npy or CSV)")
    p_run.set_defaults(func=_cmd_run, options=options)

    p_sweep = sub.add_parser("sweep", help="sweep trial/test counts")
    p_sweep.set_defaults(func=_cmd_sweep, options=_add_common(p_sweep, sweep=True))

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--fine", type=int, default=32,
                       help="fine subdivisions (default %(default)s)")
    p_val.add_argument("--coarse", type=int, default=4,
                       help="coarse subdivisions (default %(default)s)")
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
