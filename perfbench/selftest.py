#!/usr/bin/env python3
"""Short-horizon self-test of the simulator benchmark.

    python3 perfbench/selftest.py

For every workload, runs the benchmark untraced and traced on a short
simulated horizon and checks that the last stdout line is the result object,
that every metric BENCHMARK.json names is printed with its unit, and that
every output check passed.  Then injects a traced/untraced mismatch and
checks that it is reported as a failed operation with a non-zero exit.
Exits non-zero on the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
# Short horizons that still hold an epoch boundary (and, for cello-compare,
# the 2-hour Base probe).
HOURS = {"oltp-day": "2.1", "cello-compare": "2.5", "fleet": "0.05"}


def fail(message):
    sys.exit("selftest FAILED: " + message)


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", trace,
                 "--hours", HOURS[workload], *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing; stderr:\n%s" % (" ".join(cmd), done.stderr))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys are %s" % (workload, sorted(result)))
    return done.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in expected.items():
            code, result = run(workload, trace)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                fail("%s --trace %s: exit %d, result %s" % (workload, trace, code, result))
            if result["attempted"] < 1:
                fail("%s --trace %s attempted nothing" % (workload, trace))
            printed = result["metrics"]
            for m in metrics:
                got = printed.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    fail("%s --trace %s: %s printed as %s, want unit %s"
                         % (workload, trace, m["name"], got, m["unit"]))
                if not isinstance(got.get("value"), (int, float)):
                    fail("%s: %s has no numeric value" % (workload, m["name"]))
            extra = sorted(set(printed) - {m["name"] for m in metrics})
            if extra:
                fail("%s --trace %s prints unlisted metrics %s" % (workload, trace, extra))
            print("ok  %-14s trace=%s  %d metrics, %d experiments checked"
                  % (workload, trace, len(printed), result["attempted"]))

    code, result = run("oltp-day", "1", "--inject-mismatch")
    if code == 0 or result["correct"] or result["failed"] < 1:
        fail("an injected traced/untraced mismatch was not reported: exit %d, %s" % (code, result))
    print("ok  injected mismatch reported: %d of %d experiments failed, exit %d"
          % (result["failed"], result["attempted"], code))


if __name__ == "__main__":
    main()
