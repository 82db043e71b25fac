"""One benchmark worker: a fresh process that sets up and runs one workload.

    python3 bench/worker.py --workload W --seed N --seconds S --mode MODE --result FILE

MODE is ``setup`` (import flatdetect, generate the inputs, stop),
``measure`` (closed-loop passes over the inputs until the next pass would
end after S seconds, with the calibration kernel of ``calibrate.py`` timed
around every op) or ``trace`` (one pass, each op run untraced and then
traced).  ``--smoke`` swaps the workload's inputs for a one- or two-op set.
The worker writes its result as JSON to FILE; ``run.py`` starts it and
turns the result into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = ROOT / ".bench_run"


def import_flatdetect():
    """Import flatdetect from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import flatdetect
    import flatdetect.cli

    import_s = time.perf_counter() - t0
    if not Path(flatdetect.__file__).resolve().is_relative_to(src):
        raise ImportError(f"flatdetect imported from {flatdetect.__file__}, not {src}")
    return flatdetect.cli, import_s


def run_pass(cli, ops, outputs, failures, first_op=0, cals=None):
    """Run every op once; return per-op wall times.  ``outputs`` maps op
    index to the digest of its first output: a later run must match it.
    With a ``cals`` list, time the calibration kernel before the first op
    and after each op into it."""
    import calibrate

    times = []
    if cals is not None:
        cals.append(calibrate.kernel())
    for i, op in enumerate(ops, start=first_op):
        op.out.unlink(missing_ok=True)  # never check a stale output
        t0 = time.perf_counter()
        code = cli.run(list(op.argv))
        times.append(time.perf_counter() - t0)
        if cals is not None:
            cals.append(calibrate.kernel())
        try:
            data = op.out.read_bytes()
        except OSError as exc:
            data, reason = b"", f"no output: {exc}"
        else:
            reason = op.check(code, data)
        digest = hashlib.sha256(data).hexdigest()
        if reason is None and outputs.setdefault(i, digest) != digest:
            reason = "output bytes differ from an earlier run of the same op"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    # flatdetect first, so that import_s includes numpy as for a bare interpreter
    cli, import_s = import_flatdetect()
    import workloads

    run_dir = RUN_DIR / f"{args.workload}-{args.seed}-{args.mode}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ops = workloads.generate(args.workload, args.seed, run_dir, args.smoke)
        result = {"ready": time.monotonic(), "import_s": import_s}
        if args.mode != "setup":
            result.update(_run(cli, ops, args))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return 0


def _run(cli, ops, args) -> dict:
    import calibrate

    outputs, failures = {}, []
    times, scaled, labels = [], [], []
    attempted = 0
    if args.mode == "measure":
        start = time.monotonic()
        while True:
            p0 = time.monotonic()
            cals = []
            pass_times = run_pass(cli, ops, outputs, failures, cals=cals)
            times += pass_times
            scaled += calibrate.scale(pass_times, cals)
            labels += [op.label for op in ops]
            attempted += len(ops)
            now = time.monotonic()
            if now - start + (now - p0) > args.seconds:
                break
        if attempted == len(ops):
            # a single pass: repeat the first op for the byte-identity check
            run_pass(cli, ops[:1], outputs, failures)
            attempted += 1
        return {"times": times, "scaled": scaled, "labels": labels,
                "attempted": attempted, "failures": failures}

    import tracing

    # each op runs untraced, then traced: both see the same warm state, and
    # the outputs of the two runs must be byte-identical
    tracer = tracing.Tracer()
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain += run_pass(cli, [op], outputs, failures, first_op=i)
        tracer.op = i
        tracer.install()
        try:
            traced += run_pass(cli, [op], outputs, failures, first_op=i)
        finally:
            tracer.uninstall()
    layers, shares = tracer.summary(sum(plain))
    RUN_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(RUN_DIR / f"trace-{args.workload}.jsonl.gz")
    return {"times": plain, "traced_times": traced, "labels": [op.label for op in ops],
            "attempted": 2 * len(ops), "failures": failures,
            "layers": layers, "shares": shares}


if __name__ == "__main__":
    sys.exit(main())
