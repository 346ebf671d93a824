"""Self-test of the benchmark harness, at toy problem sizes.

    python3 perfbench/selftest.py

Runs every workload with a shrunken horizon, tracing off and on, and checks:

1. the result line carries exactly the metrics that ``BENCHMARK.json`` names,
   with their units, and every sample passes the correctness gate;
2. a ``verify`` run with the config switch ``debug.wrong_c_beta`` (the a
   priori estimate with its constant zeroed) counts every sample as failed;
3. traced and untraced samples report the same Y0.

Prints one line per problem found and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import sys

import run

TOY_HORIZON = {"solve_predictable": 4, "verify_intensity": 6, "sweep_unit_jumps": 3}
SEED = 7


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    work = run.ROOT / ".bench_out" / "selftest"
    problems = []
    if {w["name"] for w in bench["workloads"]} != set(TOY_HORIZON):
        problems.append("BENCHMARK.json workloads differ from the harness's")

    for name, horizon in TOY_HORIZON.items():
        for trace in (0, 1):
            tag = f"{name} trace {trace}"
            record = run.run_benchmark(name, SEED, 0, bool(trace),
                                       work / f"{name}-trace-{trace}", horizon=horizon)
            line = json.loads(json.dumps(run.final_line(record)))
            emitted = {k: v["unit"] for k, v in line["metrics"].items()}
            if emitted != units[trace]:
                problems.append(f"{tag}: emitted {sorted(emitted.items())}, "
                                f"BENCHMARK.json names {sorted(units[trace].items())}")
            if not all(isinstance(v["value"], (int, float)) for v in line["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            if not line["correct"] or line["failed"]:
                problems.append(f"{tag}: {line['failed']} of {line['attempted']} samples "
                                f"failed: {[s['problems'] for s in record['samples']]}")
            y0 = {s["traced"]: s.get("info", {}).get("Y0") for s in record["samples"]}
            if trace and (len(y0) != 2 or y0[True] != y0[False] or y0[True] is None):
                problems.append(f"{tag}: traced and untraced Y0 differ: {y0}")

    record = run.run_benchmark("verify_intensity", SEED, 0, False,
                               work / "wrong_c_beta",
                               horizon=TOY_HORIZON["verify_intensity"],
                               debug={"wrong_c_beta": True})
    if record["correct"] or record["failed"] != record["attempted"]:
        problems.append(f"wrong_c_beta: {record['failed']} of {record['attempted']} "
                        "samples counted as failed, expected all")

    for p in problems:
        print(f"FAIL {p}")
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
