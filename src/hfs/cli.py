"""Command-line front end: steady, evolve, sweep and validate subcommands.

Override precedence is CLI ``--set`` > config file > built-in sodium
defaults.  All outputs go to explicitly named paths.  Exit codes: 0 success,
1 solver non-convergence or failed validation, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import identities, optics, sweep as sweep_mod
from .config import ConfigDocument, ConfigError, parse_config
from .model import STATE_COLUMNS, ground_state, pack
from .steady import SingularSystem, solve_selfconsistent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfs",
        description="Four-level hyperfine atom: steady states, dynamics, "
                    "detuning sweeps and identity validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH",
                       help="configuration file (sections: system, drive, "
                            "sweep, solver)")
        p.add_argument("--set", metavar="SECTION.KEY=VALUE", action="append",
                       default=[], dest="overrides",
                       help="override a config entry; repeatable")
        p.add_argument("--ndd", choices=("on", "off"),
                       help="force the local-field correction on or off")

    p = sub.add_parser("steady", help="solve one steady state and print "
                                      "populations and transfer measures")
    common(p)
    p.add_argument("--output", metavar="PATH",
                   help="write the solution as JSON")

    p = sub.add_parser("evolve", help="integrate the equations of motion "
                                      "from the ground state")
    common(p)
    p.add_argument("--t-end", type=float, default=50.0, metavar="T",
                   help="integration time in units of 1/gamma (default 50)")
    p.add_argument("--output", metavar="PATH",
                   help="write the trajectory as CSV")

    p = sub.add_parser("sweep", help="run the detuning/intensity sweep grid")
    common(p)
    p.add_argument("--output", metavar="PATH", required=True,
                   help="write the spectrum table as CSV")
    p.add_argument("--json", metavar="PATH", dest="json_path",
                   help="also write the table as JSON")

    p = sub.add_parser("validate", help="run the identity suite over the "
                                        "configured sweep grid")
    common(p)
    p.add_argument("--output", metavar="PATH",
                   help="write the identity reports as JSON")
    return parser


def _load_document(args) -> ConfigDocument:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = parse_config(fh.read())
    else:
        doc = ConfigDocument()
    for item in args.overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        target, _, value = item.partition("=")
        section, _, key = target.partition(".")
        doc.set_override(section.strip(), key.strip(), value)
    if args.ndd is not None:
        doc.set_override("drive", "ndd",
                         "true" if args.ndd == "on" else "false")
        doc.set_override("sweep", "ndd",
                         "true" if args.ndd == "on" else "false")
    return doc


def _print_state(rho, result) -> None:
    print(f"converged: {result.converged}  iterations: {result.iterations}  "
          f"residual: {result.residual:.3e}")
    for i in range(4):
        print(f"rho{i + 1}{i + 1} = {rho[i, i].real:.12g}")
    wg, we = optics.population_transfer(rho)
    print(f"w_g = {wg:.12g}")
    print(f"w_e = {we:.12g}")


def _state_json(rho, result) -> dict:
    out = {"converged": bool(result.converged),
           "iterations": int(result.iterations),
           "residual": float(result.residual)}
    out.update(zip(STATE_COLUMNS, pack(rho).tolist()))
    wg, we = optics.population_transfer(rho)
    out["w_g"], out["w_e"] = float(wg), float(we)
    return out


def _cmd_steady(args) -> int:
    doc = _load_document(args)
    params = doc.system_params()
    drive = doc.drive(params)
    try:
        result = solve_selfconsistent(params, drive, doc.solve_options())
    except SingularSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_state(result.rho, result)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_state_json(result.rho, result), fh, indent=1)
            fh.write("\n")
    return 0 if result.converged else 1


def _cmd_evolve(args) -> int:
    if not 0.0 < args.t_end < math.inf:
        print(f"usage error: --t-end must be positive and finite, "
              f"got {args.t_end!r}", file=sys.stderr)
        return 2
    from .dynamics import StepSizeUnderflow, evolve, write_trajectory_csv
    doc = _load_document(args)
    params = doc.system_params()
    drive = doc.drive(params)
    try:
        traj = evolve(params, drive, ground_state(), t_end=args.t_end)
    except StepSizeUnderflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: --t-end {args.t_end!r}: {exc}", file=sys.stderr)
        return 2
    rho = traj.final
    print(f"samples: {len(traj)}  t_end: {traj.t[-1]:.6g}")
    for i in range(4):
        print(f"rho{i + 1}{i + 1}(t_end) = {rho[i, i].real:.12g}")
    if args.output:
        write_trajectory_csv(traj, args.output)
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_document(args)
    params = doc.system_params()
    spec = doc.sweep_spec(params)
    table = sweep_mod.run_sweep(params, spec)
    sweep_mod.write_csv(table, args.output)
    if args.json_path:
        sweep_mod.write_json(table, args.json_path)
    n_ok = int(table.column("converged").sum())
    print(f"{len(table)} grid points, {n_ok} converged -> {args.output}")
    return 0


def _cmd_validate(args) -> int:
    doc = _load_document(args)
    params = doc.system_params()
    spec = doc.sweep_spec(params)
    table = sweep_mod.run_sweep(params, spec)
    reports = []
    for omega in spec.omegas:
        reports.append(identities.check_mirror_relations(table, omega))
        reports.append(identities.check_evenness(table, omega))
        reports.append(identities.check_raman_symmetric_form(
            params, table, omega))
        reports.append(identities.check_raman_steady_table(
            params, table, omega, ndd=spec.ndd))
    reports.append(identities.two_level_oracle_check(
        omegas=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0),
        deltas=(-8.0, -4.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0)))
    failed = 0
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        # identities are diagnostics without a pass threshold when the
        # local-field correction is on; report them but do not gate
        gating = not (spec.ndd and rep.identity != "two_level_oracle")
        print(f"{status}  {rep.identity}: max residual {rep.max_residual:.3e}"
              f" over {rep.n_points} checks (tol {rep.tolerance:g})"
              + ("" if gating else "  [diagnostic only: ndd on]"))
        if gating and not rep.passed:
            failed += 1
    if args.output:
        identities.write_report_json(reports, args.output)
    return 1 if failed else 0


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "steady":
            return _cmd_steady(args)
        if args.command == "evolve":
            return _cmd_evolve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
