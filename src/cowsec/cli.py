"""Command-line interface.

Subcommands:
    qber-curves        critical-QBER tables over a length grid
    optimal-intensity  margin-optimal source intensity per length
    attack-report      human-readable analysis of a single channel point
    validate-mc        Monte Carlo cross-validation of the analytic rates

Exit codes: 0 success, 1 validation failure, 2 invalid arguments,
3 I/O error. Length ranges use min:max:step, lists are comma separated.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence, Tuple

from . import __version__
from .attacks import (
    active_attack,
    bs_attack,
    critical_length,
    fully_insecure_length,
    key_rate_margin,
)
from .core import ProtocolParams, channel_point
from .montecarlo import InfeasibleBlockingError
from .sweeps import (
    SweepSpec,
    _json_text,
    run_montecarlo_validation,
    sweep_optimal_intensity,
    sweep_qber_curves,
)

__all__ = ["main", "console_main", "build_parser"]

_WORKERS_HELP = "accepted and ignored; rows are computed serially"


def _parse_mu_list(text: str) -> Tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse intensity list {text!r}") from None
    if not values:
        raise ValueError("empty intensity list")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"--mu values must be finite, got {text!r}")
    return values


def _parse_range(text: str) -> Tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"length range must be min:max:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse length range {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"--length bounds and step must be finite, got {text!r}")
    return lo, hi, step


def _parse_attacks(text: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cowsec",
        description="COW protocol security against beam-splitting attacks",
    )
    parser.add_argument("--version", action="version", version=f"cowsec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    qc = sub.add_parser("qber-curves", help="critical-QBER curves over a length grid")
    qc.add_argument("--mu", default="0.1,0.2,0.5", help="comma-separated source intensities")
    qc.add_argument("--delta", type=float, default=0.2, help="attenuation in dB/km")
    qc.add_argument("--decoy-fraction", type=float, default=0.1)
    qc.add_argument("--length", default="0:150:1", help="length grid min:max:step in km")
    qc.add_argument("--attacks", default="bs,active", help="subset of bs,active")
    qc.add_argument("--out", required=True, help="output file path")
    qc.add_argument("--format", choices=("csv", "json"), default="csv")
    qc.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    oi = sub.add_parser("optimal-intensity", help="margin-optimal source intensity per length")
    oi.add_argument("--delta", type=float, default=0.2)
    oi.add_argument("--decoy-fraction", type=float, default=0.1)
    oi.add_argument("--length", default="1:100:1")
    oi.add_argument("--out", required=True)
    oi.add_argument("--format", choices=("csv", "json"), default="csv")
    oi.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    ar = sub.add_parser("attack-report", help="analyse a single channel point")
    ar.add_argument("--mu", type=float, required=True)
    ar.add_argument("--delta", type=float, default=0.2)
    ar.add_argument("--length", type=float, required=True)
    ar.add_argument("--decoy-fraction", type=float, default=0.1)

    vm = sub.add_parser("validate-mc", help="Monte Carlo cross-validation")
    vm.add_argument("--mu", type=float, default=0.2)
    vm.add_argument("--delta", type=float, default=0.2)
    vm.add_argument("--length", type=float, default=20.0)
    vm.add_argument("--decoy-fraction", type=float, default=0.1)
    vm.add_argument("--pulses", type=int, default=1_000_000)
    vm.add_argument("--seed", type=int, default=42)
    vm.add_argument("--out", default=None, help="report path (stdout when omitted)")
    return parser


def _cmd_qber_curves(args: argparse.Namespace) -> int:
    l_min, l_max, l_step = _parse_range(args.length)
    spec = SweepSpec(
        mu_list=_parse_mu_list(args.mu),
        delta=args.delta,
        decoy_fraction=args.decoy_fraction,
        l_min=l_min,
        l_max=l_max,
        l_step=l_step,
        attacks=_parse_attacks(args.attacks),
        output_path=args.out,
        format=args.format,
    )
    rows = sweep_qber_curves(spec, workers=args.workers)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_optimal_intensity(args: argparse.Namespace) -> int:
    l_min, l_max, l_step = _parse_range(args.length)
    rows = sweep_optimal_intensity(
        args.delta,
        args.decoy_fraction,
        l_min,
        l_max,
        l_step,
        output_path=args.out,
        fmt=args.format,
        workers=args.workers,
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_attack_report(args: argparse.Namespace) -> int:
    params = ProtocolParams(mu=args.mu, decoy_fraction=args.decoy_fraction, delta=args.delta)
    point = channel_point(params, args.length)
    bs = bs_attack(params, args.length)
    active = active_attack(params, args.length)
    plan = active.plan
    lines = [
        f"cowsec {__version__} attack report",
        f"  configuration: mu={params.mu:g}  decoy_fraction={params.decoy_fraction:g}  "
        f"delta={params.delta:g} dB/km  length={args.length:g} km",
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
    params = ProtocolParams(mu=args.mu, decoy_fraction=args.decoy_fraction, delta=args.delta)
    report = run_montecarlo_validation(params, args.length, args.pulses, args.seed)
    text = _json_text(report.to_jsonable())
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {args.out}: {exc}") from exc
        print(f"wrote {args.out} ({report.verdict})")
    return 0 if report.passed else 1


_COMMANDS = {
    "qber-curves": _cmd_qber_curves,
    "optimal-intensity": _cmd_optimal_intensity,
    "attack-report": _cmd_attack_report,
    "validate-mc": _cmd_validate_mc,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, InfeasibleBlockingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an infeasible plan comes from valid arguments: the validation failed
        return 1 if isinstance(exc, InfeasibleBlockingError) else 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
