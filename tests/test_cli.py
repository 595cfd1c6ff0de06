"""The command-line parser against an eager oracle, in process and in fresh processes.

cli builds a subcommand's arguments only when a command line selects it.
eager_build_parser keeps the parser as it was before that change, with every
subcommand's arguments added up front; help text, parsed values, error
messages and exit codes must not tell the two apart.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cowsec.cli as cli
from bench import workloads
from cowsec import __version__
from cowsec.attacks import fully_insecure_length
from cowsec.core import ProtocolParams

_WORKERS_HELP = "accepted and ignored; rows are computed serially"

COMMANDS = ("qber-curves", "optimal-intensity", "attack-report", "validate-mc")
ATTACK_REPORT = ["attack-report", "--mu", "0.33260987618376914", "--length", "89.33066360215798"]


def eager_build_parser() -> argparse.ArgumentParser:
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


@pytest.fixture(autouse=True)
def columns_80(monkeypatch):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


def main_outcome(build, argv, monkeypatch, capsys):
    """Exit code, stdout and stderr of cli.main with build as its parser."""
    monkeypatch.setattr(cli, "build_parser", build)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def oracle_text(argv, monkeypatch, capsys):
    code, out, err = main_outcome(eager_build_parser, argv, monkeypatch, capsys)
    assert code == 0 and err == "", (argv, code, err)
    return out


HELP_LINES = [["--help"]] + [[command, "--help"] for command in COMMANDS]


@pytest.mark.parametrize("argv", HELP_LINES, ids=" ".join)
def test_help_text_matches_the_oracle(argv, monkeypatch, capsys):
    lazy = main_outcome(cli.build_parser, argv, monkeypatch, capsys)
    assert lazy == (0, oracle_text(argv, monkeypatch, capsys), "")


def default_lines(out):
    return [
        ["qber-curves", "--out", str(out)],
        ["optimal-intensity", "--out", str(out)],
        ["attack-report", "--mu", "0.2", "--length", "20"],
        ["validate-mc"],
    ]


def benchmark_lines(out_dir):
    return [list(workloads.make(name, 0, out_dir).ops[0].argv) for name in workloads.WORKLOADS]


def test_parsed_namespaces_match_the_oracle(tmp_path):
    lines = default_lines(tmp_path / "x.csv") + benchmark_lines(tmp_path)
    for argv in lines:
        assert cli.build_parser().parse_args(argv) == eager_build_parser().parse_args(argv), argv


def test_one_parser_parses_two_command_lines(tmp_path):
    parser = cli.build_parser()
    lines = [ATTACK_REPORT, ["attack-report", "--mu", "0.5", "--length", "3", "--delta", "0.3"]]
    lines += default_lines(tmp_path / "x.csv")
    for argv in lines:
        assert parser.parse_args(argv) == eager_build_parser().parse_args(argv), argv


ERROR_LINES = {
    "missing --out": ["qber-curves", "--length", "0:10:5"],
    "bad --format": ["optimal-intensity", "--format", "xml", "--out", "x.csv"],
    "non-float --mu": ["attack-report", "--mu", "bright", "--length", "1"],
    "unknown option": ["qber-curves", "--no-such-flag", "1", "--out", "x.csv"],
    "unknown command": ["no-such-command"],
    "no command": [],
    "--version": ["--version"],
}


@pytest.mark.parametrize("argv", ERROR_LINES.values(), ids=ERROR_LINES)
def test_argument_errors_match_the_oracle(argv, monkeypatch, capsys):
    lazy = main_outcome(cli.build_parser, argv, monkeypatch, capsys)
    eager = main_outcome(eager_build_parser, argv, monkeypatch, capsys)
    assert lazy == eager
    assert lazy[0] == (0 if argv == ["--version"] else 2)


def test_a_call_adds_only_its_own_subcommands_arguments(monkeypatch, capsys):
    # --version, five -h and attack-report's four options; all four
    # subcommands' 25 options would make 31
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting_add_argument(self, *flags, **options):
        added.append(flags)
        return add_argument(self, *flags, **options)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
    assert cli.main(ATTACK_REPORT) == 0
    assert len(added) <= 10, added


def test_attack_report_for_a_bright_source(capsys):
    assert cli.main(["attack-report", "--mu", "80", "--length", "1"]) == 0
    expected = fully_insecure_length(ProtocolParams(mu=80.0))
    assert f"fully insecure beyond         = {expected:.4f} km" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[c, "--help"] for c in COMMANDS] + [["--version"]], ids=" ".join)
def test_fresh_process_prints_the_oracle_text(argv, monkeypatch, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "cowsec.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src), COLUMNS="80"),
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == oracle_text(argv, monkeypatch, capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qber-curves", "--length", "0:10:0", "--mu", "x"], "needs a positive step"),
        (["qber-curves", "--length", "5:1:1", "--mu", "x"], "ends below its start"),
        (["qber-curves", "--length", "0:10:5", "--mu", "x"], "cannot parse intensity list 'x'"),
    ],
)
def test_a_bad_length_grid_is_reported_before_a_bad_mu(argv, message, tmp_path, capsys):
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_optimal_intensity_tables_differ_only_in_the_decoy_fraction(tmp_path):
    # decoys change Eve's total conclusive rate but no column of the table;
    # 0:1000:10 runs from the search bound through blocking to degenerate rows
    tables = []
    for f in ("0", "0.5"):
        out = tmp_path / f"f{f}.csv"
        argv = ["optimal-intensity", "--decoy-fraction", f, "--length", "0:1000:10"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        tables.append(out.read_text().splitlines())
    assert len(tables[0]) == len(tables[1]) == 109
    changed = [(a, b) for a, b in zip(*tables) if a != b]
    assert changed == [("# decoy_fraction=0", "# decoy_fraction=0.5")]
