#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, untraced and
traced. Checks that the result line names every metric of BENCHMARK.json
with its unit, that end-to-end values are positive, and that no operation
failed (error_rate 0).

    python3 perfbench/smoke_test.py [workload ...]

Each run takes 25-50 s on 4 cores; the traced query-sweep run is the
longest because it adds one ppSCAN-like query.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert out.returncode == 0, "%s trace=%d exited %d" % (workload, trace, out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(workload, trace):
    res = run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True, res
    assert res["attempted"] >= 1 and res["failed"] == 0, res
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}, sorted(res["metrics"])
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    print("ok  %-15s trace=%d attempted=%d" % (workload, trace, res["attempted"]))


def main():
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        for trace in (0, 1):
            check(w, trace)


if __name__ == "__main__":
    main()
