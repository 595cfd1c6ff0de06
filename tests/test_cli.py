"""The command-line parser against an eager oracle, in process and in fresh processes.

cli builds a subcommand's parser, and with it the subcommand's arguments, only
when a command line selects it. eager_build_parser builds every subcommand's
parser with all its arguments up front; help text, parsed values, error
messages and exit codes must not tell the two apart.
"""

import argparse
import json
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
    qc.add_argument("--length", default="0:150:1", help="length grid min:max:step in km")
    qc.add_argument("--out", required=True, help="output file path")
    qc.add_argument("--format", choices=("csv", "json"), default="csv")
    qc.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    oi = sub.add_parser("optimal-intensity", help="margin-optimal source intensity per length")
    oi.add_argument("--delta", type=float, default=0.2)
    oi.add_argument("--length", default="1:100:1")
    oi.add_argument("--out", required=True)
    oi.add_argument("--format", choices=("csv", "json"), default="csv")
    oi.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    ar = sub.add_parser("attack-report", help="analyse a single channel point")
    ar.add_argument("--mu", type=float, required=True)
    ar.add_argument("--delta", type=float, default=0.2)
    ar.add_argument("--length", type=float, required=True)

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
    built, added = [], []
    init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting_add_argument(self, *flags, **options):
        added.append(flags)
        return add_argument(self, *flags, **options)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
    # the top-level parser and attack-report's, with --version, two -h and
    # attack-report's three options; building every subcommand's parser would
    # make 5 parsers, and adding all 22 options 28 arguments
    assert cli.main(ATTACK_REPORT) == 0
    assert (built, len(added)) == (["cowsec", "cowsec attack-report"], 6), added
    built.clear()
    added.clear()
    assert cli.main(["--help"]) == 0  # the top-level parser alone
    assert (built, len(added)) == (["cowsec"], 2), added


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
        (["qber-curves", "--length", "0:inf:1", "--mu", "x"], "must be finite"),
        # ProtocolParams checks every intensity before the first row
        (["qber-curves", "--length", "0:10:5", "--mu", "nan"], "source intensity"),
        (["qber-curves", "--length", "0:10:5", "--mu", "inf"], "source intensity"),
        # the step is finer than floats resolve at 1e16 km: 1e16 would appear twice
        (["qber-curves", "--length", "1e16:10000000000000004:1", "--mu", "x"], "repeats a length"),
    ],
)
def test_a_bad_length_grid_is_reported_before_a_bad_mu(argv, message, tmp_path, capsys):
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("seed", ["-5", "18446744073709551616"])
def test_validate_mc_rejects_a_seed_outside_64_bits(seed, tmp_path, capsys):
    # -5 would otherwise write the report of seed 2**64 - 5, echoing -5
    out = tmp_path / "r.json"
    assert cli.main(["validate-mc", "--pulses", "1000", "--seed", seed, "--out", str(out)]) == 2
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_validate_mc_rejects_more_than_2_61_pulses(tmp_path, capsys):
    # the counters of pulse 2**61 repeat those of pulse 0; the message names
    # the pulse count, which --pulses sets, and no argument the CLI lacks
    out = tmp_path / "r.json"
    assert cli.main(["validate-mc", "--pulses", str(2**61 + 1), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "need at most 2**61 pulses, got n_pulses = 2305843009213693953" in err
    assert "first_pulse" not in err
    assert not out.exists()


def test_only_validate_mc_takes_a_decoy_fraction(tmp_path, capsys):
    # the decoy fraction enters the simulator's class mix but no closed form
    out = tmp_path / "x.csv"
    for argv in (
        ["qber-curves", "--length", "0:10:5", "--out", str(out)],
        ["optimal-intensity", "--length", "1:2:1", "--out", str(out)],
        ["attack-report", "--mu", "0.2", "--length", "20"],
    ):
        assert cli.main([*argv, "--decoy-fraction", "0.1"]) == 2, argv
        assert "unrecognized arguments: --decoy-fraction 0.1" in capsys.readouterr().err
        assert not out.exists()
    report = tmp_path / "r.json"
    argv = ["validate-mc", "--pulses", "4096", "--decoy-fraction", "0.25", "--out", str(report)]
    assert cli.main(argv) == 0
    assert json.loads(report.read_text())["config"]["decoy_fraction"] == 0.25


def test_every_qber_table_compares_both_attacks(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["qber-curves", "--mu", "0.5", "--length", "140:140:1", "--out", str(out)]
    assert cli.main([*argv, "--attacks", "bs"]) == 2
    assert "unrecognized arguments: --attacks bs" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv) == 0
    assert "# attacks=" not in out.read_text()


# One valid value other than the default for every option but --out, on top
# of the base command lines below. --workers is parsed only so that old
# command lines keep working and changes nothing; ROADMAP.md's open item on
# deleting it removes this exception.
OTHER_VALUES = {
    "qber-curves": {
        "--mu": "0.3", "--delta": "0.3", "--length": "0:150:2", "--format": "json",
    },
    "optimal-intensity": {"--delta": "0.3", "--length": "1:50:1", "--format": "json"},
    "attack-report": {"--mu": "0.5", "--delta": "0.3", "--length": "40"},
    "validate-mc": {
        "--mu": "0.3", "--delta": "0.3", "--length": "30", "--decoy-fraction": "0.2",
        "--pulses": "2048", "--seed": "7",
    },
}
NO_EFFECT = {"qber-curves": {"--workers"}, "optimal-intensity": {"--workers"}}
BASE_ARGS = {"attack-report": ["--mu", "0.2", "--length", "20"], "validate-mc": ["--pulses", "4096"]}


def output_data(command, args, tmp_path, capsys):
    """What a command line computes, without the echo of its settings."""
    out = tmp_path / "out"
    argv = [command, *args] + ([] if command == "attack-report" else ["--out", str(out)])
    assert cli.main(argv) == 0, argv
    printed = capsys.readouterr().out
    if command == "attack-report":
        return [line for line in printed.splitlines() if "configuration:" not in line]
    text = out.read_text()
    if command == "validate-mc":
        return {key: value for key, value in json.loads(text).items() if key != "config"}
    if text.startswith("{"):
        return json.loads(text)["rows"]
    return [line for line in text.splitlines() if not line.startswith("#")][1:]  # below the columns


def test_every_option_has_another_value_or_is_a_listed_exception():
    for command, (_, _, arguments) in cli._SUBCOMMANDS.items():
        options = {flags[0] for flags, _ in arguments} - {"--out"}
        assert options == set(OTHER_VALUES[command]) | NO_EFFECT.get(command, set()), command


@pytest.mark.parametrize(
    "command, option", [(c, o) for c, values in OTHER_VALUES.items() for o in values], ids="{}".format
)
def test_every_option_changes_an_output(command, option, tmp_path, capsys):
    base = BASE_ARGS.get(command, [])
    changed = list(base)
    if option in changed:
        changed[changed.index(option) + 1] = OTHER_VALUES[command][option]
    else:
        changed += [option, OTHER_VALUES[command][option]]
    before = output_data(command, base, tmp_path, capsys)
    assert output_data(command, changed, tmp_path, capsys) != before
