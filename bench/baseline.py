"""Reproduce the library baseline figures quoted in ROADMAP.md.

    python3 bench/baseline.py

Each figure is one library call, timed REPEATS times in a fresh worker
process with the benchmark's worker environment (BLAS/OpenMP threads capped
at 1, fixed hash seed); the medians, in raw wall time, go to
``bench/results/baseline.json``.  The grid Chern-Weil figure
(``chern_number``) is left out: it is on no command-line path, so no
workload runs it either.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, context_line, worker_env

REPEATS = 3

# (figure, call, figure quoted in ROADMAP.md)
FIGURES = (
    ("detection_matrix(FreeAbelian(6), [char_zn(6)])",
     lambda fd: fd.detection_matrix(fd.FreeAbelian(6), [fd.character_family_Zn(6, 4)]),
     "0.32 s"),
    ("detection_matrix(FreeAbelian(7), [char_zn(7)])",
     lambda fd: fd.detection_matrix(fd.FreeAbelian(7), [fd.character_family_Zn(7, 4)]),
     "2.3 s"),
    ("verify_family(char_zn(3, 24))",
     lambda fd: fd.verify_family(fd.character_family_Zn(3, 24)),
     "1.1-1.7 s"),
    ("verify_family(induce(char_zn(2, 64), klein))",
     lambda fd: fd.verify_family(
         fd.induce_family(fd.character_family_Zn(2, 64), fd.KleinBottleCover())),
     "0.27-0.45 s"),
    ("solve_representation(surface(3), U(3), seed 0)",
     lambda fd: fd.solve_representation(fd.surface_group(3), 3, fd.SolveConfig(seed=0)),
     "20 ms"),
)


def child() -> None:
    from worker import import_flatdetect

    import_flatdetect()
    import flatdetect as fd

    rows = []
    for figure, call, roadmap in FIGURES:
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call(fd)
            runs.append(time.perf_counter() - t0)
        rows.append({"figure": figure, "roadmap": roadmap,
                     "median_s": statistics.median(runs), "runs_s": runs})
    print(json.dumps(rows))


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        child()
        return 0
    proc = subprocess.run([sys.executable, __file__, "--child"], env=worker_env(),
                          cwd=ROOT, capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout)
    for row in rows:
        print(f"{row['figure']:50s} {row['median_s']:.4f} s (ROADMAP {row['roadmap']})")
    record = {"context": context_line(), "repeats": REPEATS, "rows": rows}
    out = BENCH / "results" / "baseline.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
