"""Correctness checks on the primary outputs of each workload.

An iteration's outputs are a list with one text per operation: the file
it wrote, or its stdout. Invariants are checked at every seed and decide
whether an operation failed. At the default seed the outputs are also
compared with the SHA-256 of their concatenation recorded from the seed
commit; a difference is reported, with the largest ulp distance of any
float cell, but is not a failure by itself, so that a change allowed to
move the last digits of a column still measures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import lzma
import math
import re
import struct
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench.workloads import Op, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Distance reported when two cells cannot be compared as floats.
INCOMPARABLE_ULP = 1 << 64

FLOAT_COLUMNS = (
    "mu", "length_km", "qber_bs", "qber_active", "i_ae_active",
    "mu_e_opt", "block_fraction", "margin", "mu_opt",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# ulp distance

def _ordered(x: float) -> int:
    # Map the IEEE-754 bit pattern onto integers that sort like the floats.
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulp_distance(a: float, b: float) -> int:
    """Number of representable doubles between a and b (0 when equal, NaN == NaN)."""
    if math.isnan(a) or math.isnan(b):
        return 0 if math.isnan(a) and math.isnan(b) else INCOMPARABLE_ULP
    return abs(_ordered(a) - _ordered(b))


def _cell_ulp(a: object, b: object) -> int:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        return 0 if a == b else INCOMPARABLE_ULP
    if not isinstance(b, (int, float)):
        return INCOMPARABLE_ULP
    return ulp_distance(float(a), float(b))


def _tree_ulp(a: object, b: object) -> int:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return INCOMPARABLE_ULP
        return max((_tree_ulp(a[k], b[k]) for k in a), default=0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return INCOMPARABLE_ULP
        return max((_tree_ulp(x, y) for x, y in zip(a, b)), default=0)
    return _cell_ulp(a, b)


def max_ulp(kind: str, text: str, reference: str) -> int:
    """Largest ulp distance of any float cell of ``text`` from ``reference``."""
    if kind == "json":
        return _tree_ulp(json.loads(text), json.loads(reference))
    _, rows = parse_csv(text)
    _, ref_rows = parse_csv(reference)
    if len(rows) != len(ref_rows):
        return INCOMPARABLE_ULP
    worst = 0
    for row, ref in zip(rows, ref_rows):
        for column, ref_value in ref.items():
            value = row.get(column)
            if value is None:
                return INCOMPARABLE_ULP
            if column in FLOAT_COLUMNS:
                worst = max(worst, ulp_distance(float(value), float(ref_value)))
            elif value != ref_value:
                return INCOMPARABLE_ULP
    return worst


# ---------------------------------------------------------------------------
# reference outputs recorded from the seed commit at the default seed

def reference_digest(workload: str) -> str:
    return json.loads((REFERENCE_DIR / "digests.json").read_text())[workload]


def reference_texts(workload: str) -> Optional[List[str]]:
    """The stored per-operation reference outputs, or None when only a digest is kept."""
    path = REFERENCE_DIR / f"{workload}.json.xz"
    if not path.is_file():
        return None
    return json.loads(lzma.decompress(path.read_bytes()).decode())


# ---------------------------------------------------------------------------
# invariants

def parse_csv(text: str) -> Tuple[Dict[str, str], List[Dict[str, str]]]:
    header: Dict[str, str] = {}
    body = []
    for line in text.splitlines(keepends=True):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        else:
            body.append(line)
    return header, list(csv.DictReader(body))


def _sweep_problems(rows: List[Dict[str, str]], op: Op) -> List[str]:
    problems = []
    if len(rows) != op.items:
        problems.append(f"{len(rows)} rows, expected {op.items}")
    for i, row in enumerate(rows):
        try:
            q_bs, q_act, margin = (float(row[c]) for c in ("qber_bs", "qber_active", "margin"))
            insecure = {"true": True, "false": False}[row["fully_insecure"]]
        except (KeyError, ValueError) as exc:
            problems.append(f"row {i}: unreadable ({exc})")
            continue
        if not (0.0 <= q_bs <= 0.5 and 0.0 <= q_act <= 0.5):
            problems.append(f"row {i}: QBER outside [0, 0.5]")
        if (q_act == 0.0) != insecure:
            problems.append(f"row {i}: qber_active == 0 disagrees with fully_insecure")
        if (margin == 0.0) != insecure:
            problems.append(f"row {i}: margin == 0 disagrees with fully_insecure")
    return problems


def check_qber_curves(texts: List[str], wl: Workload) -> List[List[str]]:
    """Per-call problems of a length-chunked sweep; monotonicity holds across chunks too."""
    result = []
    last: Dict[float, Tuple[float, float]] = {}  # mu -> QBERs at the previous chunk's last length
    for text, op in zip(texts, wl.ops):
        _, rows = parse_csv(text)
        problems = _sweep_problems(rows, op)
        if problems:
            result.append(problems)
            last = {}
            continue
        by_mu: Dict[float, List[Dict[str, str]]] = {}
        for row in rows:
            by_mu.setdefault(float(row["mu"]), []).append(row)
        if sorted(by_mu) != list(op.mus):
            problems.append(f"intensities {sorted(by_mu)}, expected {list(op.mus)}")
        for mu, curve in by_mu.items():
            if tuple(float(r["length_km"]) for r in curve) != op.lengths:
                problems.append(f"mu={mu}: length grid differs from the requested one")
            curve_q = [(float(r["qber_bs"]), float(r["qber_active"])) for r in curve]
            if mu in last:
                curve_q.insert(0, last[mu])
            for column, name in enumerate(("qber_bs", "qber_active")):
                values = [q[column] for q in curve_q]
                if any(b > a for a, b in zip(values, values[1:])):
                    problems.append(f"mu={mu}: {name} increases with length")
            last[mu] = curve_q[-1]
        result.append(problems)
    return result


def check_optimal_intensity(text: str, op: Op) -> List[str]:
    _, rows = parse_csv(text)
    problems = _sweep_problems(rows, op)
    if problems:
        return problems
    if tuple(float(r["length_km"]) for r in rows) != op.lengths:
        problems.append("length grid differs from the requested one")
    for i, row in enumerate(rows):
        if not float(row["mu_opt"]) > 0.0 or row["mu_opt"] != row["mu"]:
            problems.append(f"row {i}: mu_opt not positive or not the row's mu")
    return problems


def check_validation(text: str, op: Op) -> List[str]:
    try:
        report = json.loads(text)
        statuses = [c["status"] for c in report["checks"]]
        passed = report["passed"]
        pulses = report["config"]["n_pulses"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable validation report ({exc})"]
    problems = []
    if passed is not True:
        problems.append("report did not pass")
    if "pass" not in statuses:
        problems.append(f"no check has power to pass (statuses {statuses})")
    if pulses != op.items:
        problems.append(f"report simulated {pulses} pulses, expected {op.items}")
    return problems


_QBER = re.compile(r"critical QBER\s+= (\S+)")
_INSECURE = re.compile(r"fully insecure\s+= (yes|no)")
_CONFIG = re.compile(r"configuration: mu=(\S+) .* length=(\S+) km")


def check_report(text: str, op: Op) -> List[str]:
    (mu,), (length,) = op.mus, op.lengths
    qbers = _QBER.findall(text)
    insecure = _INSECURE.findall(text)
    config = _CONFIG.search(text)
    if len(qbers) != 2 or len(insecure) != 1 or config is None:
        return ["attack report lacks its configuration, QBER or verdict lines"]
    problems = []
    if f"{float(config.group(1)):g}" != f"{mu:g}" or f"{float(config.group(2)):g}" != f"{length:g}":
        problems.append(f"report is for mu={config.group(1)} L={config.group(2)}, not {mu:g}, {length:g}")
    q_bs, q_act = (float(q) for q in qbers)
    if not (0.0 <= q_bs <= 0.5 and 0.0 <= q_act <= 0.5):
        problems.append("critical QBER outside [0, 0.5]")
    if insecure[0] == "yes" and q_act != 0.0:
        problems.append("fully insecure point with a non-zero active critical QBER")
    return problems


def check_output(wl: Workload, texts: Optional[List[str]]) -> List[List[str]]:
    """Problems per operation of one iteration's outputs (None when they are missing)."""
    if not isinstance(texts, list) or len(texts) != len(wl.ops):
        return [["missing output"]] * len(wl.ops)
    if wl.name == "sweep_grid":
        result = check_qber_curves(texts, wl)
    else:
        checker = {
            "optimise_mu": check_optimal_intensity,
            "validate_mc": check_validation,
            "point_reports": check_report,
        }[wl.name]
        result = [checker(text, op) for text, op in zip(texts, wl.ops)]
    return [["no output written"] if not text else problems
            for text, problems in zip(texts, result)]


def fully_insecure_rows(wl: Workload, texts: List[str]) -> int:
    if wl.kind != "csv":
        return 0
    return sum(row.get("fully_insecure") == "true" for text in texts for row in parse_csv(text)[1])


def compare_reference(wl: Workload, texts: List[str]) -> Tuple[bool, int]:
    """(digest matches, max ulp from the reference) for default-seed outputs."""
    if sha256("".join(texts).encode()) == reference_digest(wl.name):
        return True, 0
    reference = reference_texts(wl.name)
    if reference is None:
        return False, 0
    if len(reference) != len(texts):
        return False, INCOMPARABLE_ULP
    return False, max((max_ulp(wl.kind, t, r) for t, r in zip(texts, reference)), default=0)
