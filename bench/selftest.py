"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For every workload it runs a one- or two-op input, untraced and traced, and
checks that

- every end-to-end and per-layer metric in BENCHMARK.json is emitted with
  its unit, and no other metric is;
- every oracle passes, and each op's output bytes are identical with
  tracing on and off (the worker counts a difference as a failed op);
- tracing refuses a target that no longer exists.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import tracing


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    (run.ROOT / ".bench_run").mkdir(exist_ok=True)
    failures: list[str] = []
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the harness's workloads", failures)
    for workload in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            metrics, attempted, failed, lines = run.measure(workload, 0, 0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            check(got == want, f"{workload} {key}: metric names and units", failures)
            check(failed == 0 and attempted > 0,
                  f"{workload} {key}: {attempted} ops, {failed} failed", failures)
            if failed:
                print("\n".join(lines))

    import worker

    worker.import_flatdetect()
    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("cli", "no_such_function", "cli.run", None),)
    try:
        tracing.Tracer()
        refused = False
    except AttributeError:
        refused = True
    finally:
        tracing.TARGETS = saved
    check(refused, "tracing refuses a missing target", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
