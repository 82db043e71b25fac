"""Benchmark of the flatdetect command line, end to end and per layer.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each operation is one in-process ``flatdetect.cli.run(argv)`` call on
generated ``.grp``/``.fam`` files, driven closed-loop by one client (one
process, one thread, one operation at a time), and checked by an oracle.

``--trace 0`` starts several fresh worker processes that only set up
(interpreter, ``import flatdetect``, input generation), then one that runs
closed-loop passes over the workload's inputs, and reports the end-to-end
metrics:

- ``setup_s``: median time from starting a fresh worker to its first op;
- ``op_p50_s``, ``op_p90_s``: nearest-rank percentiles of per-op latency
  (at least 10 samples lie beyond p90);
- ``ops_per_s``: ops completed over the summed op latency;
- ``peak_rss_mb``: peak resident set size of the measuring worker.

The four timings are wall times scaled to a reference host speed by the
calibration kernel of ``calibrate.py``; the raw wall-clock values are
printed beside them.  ``--trace 1`` runs every op of one pass twice,
untraced and then with span wrappers around every layer, and reports the
per-layer metrics of ``tracing.py`` in raw wall time.

Human-readable lines come first: every metric with its unit, ops attempted
and failed, the median latency of each kind of op, and with ``--trace 1``
each layer's share of the traced op time.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Workers run with BLAS/OpenMP threads capped at 1 and a fixed hash seed.
Nothing is pinned and no cache is dropped; the CPU count and load average
are printed as noise context instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# BLAS/OpenMP thread pools capped at 1, and a fixed hash seed
WORKER_ENV = {
    **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"),
    "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 9          # setup-only workers per run
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# the layers each workload was chosen to stress; the traced run prints the
# share of op time they take
STRESSED = {
    "exact_pairing": ("detect.slant_contract", "charforms.contract_z"),
    "numeric_grid": ("families.evaluate", "presentation.evaluate_word",
                     "repvar.relator_defect", "repvar.unitarity_defect"),
    "numeric_loops": ("families.evaluate", "presentation.evaluate_word",
                      "families.holonomy_loop", "charforms.winding_number"),
    "solve": ("repvar.solve_representation",),
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    return {**os.environ, **WORKER_ENV}


def context_line() -> str:
    """CPU, CPU count and load average (noise context) and the worker env."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    caps = " ".join(f"{k}={v}" for k, v in WORKER_ENV.items())
    return (f"context: cpu={cpu!r} nproc={len(os.sched_getaffinity(0))} loadavg={load} "
            f"python={sys.version.split()[0]} worker_env: {caps}")


def spawn(workload: str, seed: int, mode: str, seconds: float = 0.0,
          smoke: bool = False) -> tuple[float, dict]:
    """Run one fresh worker; return (its start time, its result)."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as tmp:
        result = Path(tmp) / "result.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
               "--result", str(result)] + ["--smoke"] * smoke
        start = time.monotonic()
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
        return start, json.loads(result.read_text())


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile: leaves len * (1 - p) samples above it."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def timings(times: list[float]) -> dict:
    ordered = sorted(times)
    return {"op_p50_s": percentile(ordered, 0.50), "op_p90_s": percentile(ordered, 0.90),
            "ops_per_s": len(times) / sum(times)}


def end_to_end(workload: str, seed: int, seconds: float,
               smoke: bool) -> tuple[dict, dict, list[str]]:
    setup, raw_setup = [], []
    for _ in range(SETUP_PROBES):
        cals = [calibrate.kernel() for _ in range(calibrate.WINDOW)]
        start, res = spawn(workload, seed, "setup", smoke=smoke)
        raw_setup.append(res["ready"] - start)
        cals += [calibrate.kernel() for _ in range(calibrate.WINDOW)]
        setup.append(raw_setup[-1] * calibrate.REF_S / statistics.median(cals))
    start, res = spawn(workload, seed, "measure", seconds, smoke)
    values = {
        "setup_s": statistics.median(setup),
        **timings(res["scaled"]),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    raw = {"setup_s": statistics.median(raw_setup), **timings(res["times"])}
    n = len(res["times"])
    lines = [f"{workload}: {n} timed ops, {res['attempted']} attempted, "
             f"{len(res['failures'])} failed (fail_ratio "
             f"{len(res['failures']) / res['attempted']:.4f}); "
             f"{n - math.ceil(0.9 * n)} samples beyond p90; "
             f"{len(setup)} setup samples; import flatdetect {res['import_s']:.4f} s",
             "  raw wall clock, before host-speed scaling: "
             + " ".join(f"{k}={v:.5g}" for k, v in raw.items())]
    by_label = defaultdict(list)
    for label, t in zip(res["labels"], res["times"]):
        by_label[label].append(t)
    lines += [f"  op {label}: raw median {statistics.median(ts):.4f} s (n={len(ts)})"
              for label, ts in sorted(by_label.items())]
    return values, res, lines


def per_layer(workload: str, seed: int, smoke: bool) -> tuple[dict, dict, list[str]]:
    _, res = spawn(workload, seed, "trace", smoke=smoke)
    plain, traced = sum(res["times"]), sum(res["traced_times"])
    stressed = STRESSED[workload]
    lines = [f"{workload}: traced pass of {len(res['times'])} ops, "
             f"{traced:.3f} s traced vs {plain:.3f} s untraced",
             f"  stressed layers {' + '.join(stressed)}: "
             f"{sum(res['shares'][n] for n in stressed):.4f} of traced op time"]
    lines += [f"  share of op time {name}: {share:.4f}"
              for name, share in sorted(res["shares"].items(), key=lambda kv: -kv[1])]
    return res["layers"], res, lines


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Metrics ({name: {value, unit}}), ops attempted, ops failed, report lines.
    ``smoke`` runs a one- or two-op input instead of the workload's pass."""
    if trace:
        values, res, lines = per_layer(workload, seed, smoke)
        units = LAYER_METRICS
    else:
        values, res, lines = end_to_end(workload, seed, seconds, smoke)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines += [f"  {name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  FAILED {reason}" for reason in res["failures"][:20]]
    return metrics, res["attempted"], len(res["failures"]), lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "flatdetect" / "__init__.py").is_file():
        print(f"error: no flatdetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    print(context_line())
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload, trace in runs:
            m, a, f, lines = measure(workload, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
