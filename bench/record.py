"""Record the reference outputs of every workload at the default seed.

    PYTHONPATH=src python3 -m bench.record

Writes ``bench/reference/digests.json`` (SHA-256 of each workload's
outputs, concatenated in operation order) and, for the workloads whose
outputs hold floats, an xz-compressed JSON list of the per-operation
outputs, which ``bench.check`` uses to measure ulp distances. Run it only
on the commit whose outputs are the reference; the stored files come from
the seed commit.
"""

from __future__ import annotations

import io
import json
import lzma
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from bench import check, workloads


def main() -> None:
    import cowsec.cli as cli

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, workloads.DEFAULT_SEED, Path(tmp))
            texts = []
            for op in wl.ops:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli.main(list(op.argv))
                if code != 0:
                    raise SystemExit(f"{name}: {' '.join(op.argv)} exited with {code}")
                texts.append(buf.getvalue() if op.out is None else Path(op.out).read_text())
            if wl.kind != "text":
                data = json.dumps(texts).encode()
                (check.REFERENCE_DIR / f"{name}.json.xz").write_bytes(lzma.compress(data, preset=9))
            digests[name] = check.sha256("".join(texts).encode())
    (check.REFERENCE_DIR / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    main()
