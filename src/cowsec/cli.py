"""Command-line interface.

Subcommands:
    qber-curves        critical-QBER tables of both attacks over a length grid
    optimal-intensity  margin-optimal source intensity per length
    attack-report      human-readable analysis of a single channel point
    validate-mc        Monte Carlo cross-validation of the analytic rates

Exit codes: 0 success, 1 validation failure, 2 invalid arguments,
3 I/O error. Length ranges use min:max:step, lists are comma separated.
The decoy fraction enters only the simulated pulse statistics, not the
closed forms, so validate-mc is the one command that takes it.
qber-curves and optimal-intensity build their length grid once, have
the sweep compute its rows and pass them to _write_table, the one caller
of sweeps.write_sweep, which builds the header naming the command and
its resolved settings.

Each subcommand's help line, handler and arguments live in one table,
_SUBCOMMANDS, and a subcommand's parser is built only when a command line
selects it, so a call builds only the parser of the subcommand it runs.
Likewise each handler imports its layer on first use: importing this
module loads only core and attacks, and qber-curves, optimal-intensity
and validate-mc load sweeps (validate-mc also numpy) when they run, so
attack-report, --help and --version never load them.
No command loads dataclasses: every record is a typing.NamedTuple.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Sequence, Tuple

from . import __version__
from .attacks import (
    active_attack,
    bs_attack,
    critical_length,
    fully_insecure_length,
    key_rate_margin,
)
from .core import ProtocolParams, channel_point

__all__ = ["main", "console_main", "build_parser"]

# --workers is parsed only so that existing command lines keep working.
_WORKERS_HELP = "accepted and ignored; rows are computed serially"


def _parse_mu_list(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse intensity list {text!r}") from None


def _parse_range(text: str) -> Tuple[float, float, float]:
    """A --length range's min, max and step; length_grid checks the grid they span."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"length range must be min:max:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse length range {text!r}") from None
    return lo, hi, step


_Argument = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*flags: str, **options: Any) -> _Argument:
    return flags, options


def _write_table(
    args: argparse.Namespace, rows: Sequence[Any], grid: Tuple[float, float, float], **settings: str
) -> int:
    """Write rows to --out under a header of the command, settings, --delta and grid at %.17g."""
    from .sweeps import write_sweep

    config = {
        "command": args.command,
        **settings,
        "delta": f"{args.delta:.17g}",
        "length": ":".join(f"{x:.17g}" for x in grid),
    }
    write_sweep(args.out, rows, config, args.format)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_qber_curves(args: argparse.Namespace) -> int:
    from .sweeps import length_grid, sweep_qber_curves

    grid = _parse_range(args.length)
    lengths = length_grid(*grid)  # a bad --length is reported before a bad --mu
    mu_list = _parse_mu_list(args.mu)
    rows = sweep_qber_curves(mu_list, lengths, delta=args.delta)
    return _write_table(args, rows, grid, mu=",".join(f"{m:.17g}" for m in mu_list))


def _cmd_optimal_intensity(args: argparse.Namespace) -> int:
    from .sweeps import length_grid, sweep_optimal_intensity

    grid = _parse_range(args.length)
    return _write_table(args, sweep_optimal_intensity(args.delta, length_grid(*grid)), grid)


def _cmd_attack_report(args: argparse.Namespace) -> int:
    params = ProtocolParams(mu=args.mu, delta=args.delta)
    point = channel_point(params, args.length)
    bs = bs_attack(params, args.length)
    active = active_attack(params, args.length)
    plan = active.plan
    lines = [
        f"cowsec {__version__} attack report",
        f"  configuration: mu={params.mu:g}  delta={params.delta:g} dB/km  length={args.length:g} km",
        "",
        "channel",
        f"  Bob intensity mu_B            = {point.mu_b:.6g}",
        f"  divertable budget mu_E_max    = {point.mu_e_max:.6g}",
        f"  critical length (blocking)    = {critical_length(params.delta):.4f} km",
        f"  fully insecure beyond         = {fully_insecure_length(params):.4f} km",
        "",
        "beam-splitting attack (collective decoding)",
        f"  I_AE                          = {bs.i_ae:.6f} bit",
        f"  critical QBER                 = {bs.qber_critical:.6f}",
        "",
        "active beam-splitting attack",
        f"  optimal diverted mu_E         = {plan.mu_e:.6g}",
        f"  forwarded intensity mu_B'     = {plan.mu_b_prime:.6g}",
        f"  blocked fraction b            = {plan.block_fraction:.6f}",
        f"  Eve conclusive p (info)       = {plan.p_conc_inf:.6f}",
        f"  Eve conclusive p (decoy)      = {plan.p_conc_cont:.6f}",
        f"  I_AE                          = {active.i_ae:.6f} bit",
        f"  critical QBER                 = {active.qber_critical:.6f}",
        f"  fully insecure                = {'yes' if active.fully_insecure else 'no'}",
        f"  key-rate margin               = {key_rate_margin(params, args.length):.6f} bit/pulse",
    ]
    print("\n".join(lines))
    return 0


def _cmd_validate_mc(args: argparse.Namespace) -> int:
    from .sweeps import _write_report, run_montecarlo_validation

    params = ProtocolParams(mu=args.mu, delta=args.delta)
    report = run_montecarlo_validation(
        params, args.length, args.decoy_fraction, args.pulses, args.seed
    )
    _write_report(report, args.out)
    if args.out is not None:
        print(f"wrote {args.out} ({report.verdict})")
    return 0 if report.passed else 1


# Each subcommand's help line, handler and the add_argument calls that define it.
_SUBCOMMANDS = {
    "qber-curves": (
        "critical-QBER curves over a length grid",
        _cmd_qber_curves,
        (
            _arg("--mu", default="0.1,0.2,0.5", help="comma-separated source intensities"),
            _arg("--delta", type=float, default=0.2, help="attenuation in dB/km"),
            _arg("--length", default="0:150:1", help="length grid min:max:step in km"),
            _arg("--out", required=True, help="output file path"),
            _arg("--format", choices=("csv", "json"), default="csv"),
            _arg("--workers", type=int, default=1, help=_WORKERS_HELP),
        ),
    ),
    "optimal-intensity": (
        "margin-optimal source intensity per length",
        _cmd_optimal_intensity,
        (
            _arg("--delta", type=float, default=0.2),
            _arg("--length", default="1:100:1"),
            _arg("--out", required=True),
            _arg("--format", choices=("csv", "json"), default="csv"),
            _arg("--workers", type=int, default=1, help=_WORKERS_HELP),
        ),
    ),
    "attack-report": (
        "analyse a single channel point",
        _cmd_attack_report,
        (
            _arg("--mu", type=float, required=True),
            _arg("--delta", type=float, default=0.2),
            _arg("--length", type=float, required=True),
        ),
    ),
    "validate-mc": (
        "Monte Carlo cross-validation",
        _cmd_validate_mc,
        (
            _arg("--mu", type=float, default=0.2),
            _arg("--delta", type=float, default=0.2),
            _arg("--length", type=float, default=20.0),
            _arg("--decoy-fraction", type=float, default=0.1),
            _arg("--pulses", type=int, default=1_000_000),
            _arg("--seed", type=int, default=42),
            _arg("--out", default=None, help="report path (stdout when omitted)"),
        ),
    ),
}


class _SubcommandParser:
    """A subcommand's parser, built only when a command line selects it.

    It keeps the parser's kwargs and arguments, and builds the parser in
    parse_known_args, the one method argparse's subparsers action calls on
    a subparser, so a call builds only the parser of the subcommand it runs.
    """

    def __init__(self, *, arguments: Sequence[_Argument], **kwargs: Any) -> None:
        self._arguments = arguments
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        for flags, options in self._arguments:
            parser.add_argument(*flags, **options)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cowsec",
        description="COW protocol security against beam-splitting attacks",
    )
    parser.add_argument("--version", action="version", version=f"cowsec {__version__}")
    # argparse derives the same prog by formatting the usage when it is not given
    sub = parser.add_subparsers(
        dest="command", required=True, prog="cowsec", parser_class=_SubcommandParser
    )
    for name, (help_line, _, arguments) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_line, arguments=arguments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return _SUBCOMMANDS[args.command][1](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
