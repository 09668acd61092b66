#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload named in BENCHMARK.json:

- an untraced and a traced run pass their checks and print exactly the
  end-to-end and the per-layer metrics named there, each with its unit;
- a run with one corrupted store word (--plant-fault) fails its checks:
  "correct" is false, "failed" is at least 1 and the exit code is not 0;
- tree-mix-sim: two runs of one seed print identical modelled metrics.

Exits 1 at the first violated expectation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(what):
    print("smoke_test: FAIL: " + what)
    sys.exit(1)


def run(workload, seed, trace, *extra):
    """Runs the benchmark command; returns (exit code, stdout lines, result)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing; stderr:\n%s" % (" ".join(cmd), proc.stderr))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON: %r" % (workload, lines[-1]))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys are %s" % (workload, sorted(result)))
    return proc.returncode, lines, result


def expect_metrics(workload, result, named):
    printed = result["metrics"]
    want = {m["name"]: m["unit"] for m in named}
    if set(printed) != set(want):
        fail("%s: metrics %s, expected %s" % (workload, sorted(printed), sorted(want)))
    for name, unit in want.items():
        value = printed[name].get("value")
        if printed[name].get("unit") != unit or not isinstance(value, (int, float)):
            fail("%s: %s printed as %s, expected a number in %s" % (workload, name,
                                                                   printed[name], unit))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        for trace, named in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, _, result = run(w, 7, trace)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                fail("%s trace=%d: clean run failed its checks (exit %d, %s)" %
                     (w, trace, code, result))
            if result["attempted"] < 1:
                fail("%s trace=%d: no operation attempted" % (w, trace))
            expect_metrics(w, result, named)
        code, lines, result = run(w, 7, 0, "--plant-fault")
        if code == 0 or result["correct"] or result["failed"] < 1:
            fail("%s: the planted corrupt word went unnoticed (exit %d, %s)" % (w, code, result))
        print("smoke_test: %s ok; planted fault caught: %s" %
              (w, next(l for l in lines if l.startswith("# FAILED"))))

    # The modelled metrics are a function of the seed alone.
    def modelled(lines, result):
        return ([l for l in lines if l.startswith("# model_")],
                result["metrics"]["lat_p50_us"], result["metrics"]["lat_p99_us"])
    first = modelled(*run("tree-mix-sim", 9, 0)[1:])
    second = modelled(*run("tree-mix-sim", 9, 0)[1:])
    if first != second or not first[0]:
        fail("tree-mix-sim: modelled metrics differ between runs of one seed: %s vs %s" %
             (first, second))
    print("smoke_test: tree-mix-sim modelled metrics repeat exactly: %s" % (first,))
    print("smoke_test: all passed")


if __name__ == "__main__":
    main()
