"""Digest the CLI behaviour of every benchmark op of one seed.

    python3 tools/op_digests.py --src SRC --seed 3

Imports flatdetect from the source tree SRC and the benchmark's input
generator (``bench/workloads.py``) from this checkout, writes the inputs of
every workload into a fresh temporary directory, runs every op in process
through ``flatdetect.cli.run`` and prints one line per op:

    workload index exit-code stdout-digest stderr-digest out-digest label

The temporary directory's path is replaced by ``<run>`` before digesting, so
file names in messages agree between runs.  A missing ``--out`` file digests
as ``-``.  Two source trees behave byte-identically on the seed when their
listings are equal, e.g.

    python3 tools/op_digests.py --src ../parent/src --seed 3 > parent.txt
    python3 tools/op_digests.py --src src --seed 3 > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, type=Path, help="source tree holding flatdetect")
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import flatdetect.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"flatdetect imported from {cli.__file__}, not {src}")
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    tmp = Path(tempfile.mkdtemp(prefix="op-digests-")).resolve()
    marker = str(tmp).encode()

    def digest(data: bytes) -> str:
        return hashlib.sha256(data.replace(marker, b"<run>")).hexdigest()[:16]

    try:
        for workload in workloads.WORKLOADS:
            run_dir = tmp / f"{workload}-{args.seed}"
            run_dir.mkdir()
            for i, op in enumerate(workloads.generate(workload, args.seed, run_dir)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(list(op.argv))
                result = digest(op.out.read_bytes()) if op.out.exists() else "-"
                print(
                    workload, i, code, digest(out.getvalue().encode()),
                    digest(err.getvalue().encode()), result, op.label,
                )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
