#!/usr/bin/env python3
"""Paired perfbench gate: fail when a change worsens an end-to-end metric.

    python3 tools/perf_gate.py PARENT_DIR CHANGE_DIR

The two directories are checkouts of the parent commit and of the
change; each side runs its own BENCHMARK.json command from its own root,
so it builds and times its own src/. Every workload of the change's
BENCHMARK.json runs PAIRS times per side at SEED for SECONDS, the side
that goes first alternating from pair to pair. The gate fails when any
run is not `correct` or has `failed > 0`, or when any end-to-end
metric's median change/parent ratio over the pairs is worse than its
bound. A workload the parent does not name is new and not compared.

stdout gets a markdown table per workload; every run's result line
goes to CHANGE_DIR/.bench_out/perf-gate.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SECONDS = 5
SEED = 101


def run_once(checkout, command, workload):
    """One benchmark run's result line; a run that printed none is
    returned as not correct."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(SEED),
                   "--seconds", str(SECONDS)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": "no result line"}
    if proc.returncode != 0:
        result = dict(result, correct=False,
                      error="exit %d" % proc.returncode)
    return result


def ratio(change, parent):
    if parent == 0:
        return 1.0 if change == 0 else float("inf")
    return change / parent


def verdict(parent, change, benchmark):
    """Decide the gate. `parent` and `change` map a workload to its list
    of result objects, run i of one side paired with run i of the other;
    `benchmark` is the change's BENCHMARK.json. Returns (rows, failures):
    a row is (workload, metric, unit, bound, parent median, change
    median, pair-median ratio, "ok" | "WORSE" | "new"), and the gate
    passes when `failures` is empty."""
    rows, failures = [], []
    for side, results in (("parent", parent), ("change", change)):
        for workload, runs in results.items():
            for i, run in enumerate(runs):
                if run.get("correct") is not True or run.get("failed") != 0:
                    failures.append("%s %s run %d: correct=%s failed=%s %s"
                                    % (workload, side, i + 1,
                                       run.get("correct"), run.get("failed"),
                                       run.get("error", "")))
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in parent:
            rows.append((workload, "", "", 0, 0, 0, 0, "new"))
            continue
        pairs = list(zip(parent[workload], change[workload]))
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            try:
                values = [(p["metrics"][name]["value"],
                           c["metrics"][name]["value"]) for p, c in pairs]
            except KeyError:
                failures.append("%s: a run reported no %s" % (workload, name))
                break
            med = statistics.median(ratio(c, p) for p, c in values)
            worse = (med > 1 + bound if metric["better"] == "lower"
                     else med < 1 - bound)
            rows.append((workload, name, metric["unit"], bound,
                         statistics.median(p for p, _ in values),
                         statistics.median(c for _, c in values), med,
                         "WORSE" if worse else "ok"))
            if worse:
                failures.append("%s %s: change/parent %.3f beyond bound %g"
                                % (workload, name, med, bound))
    return rows, failures


def table(rows):
    out, current = [], None
    for workload, name, unit, bound, p, c, med, status in rows:
        if workload != current:
            current = workload
            out += ["", "#### `%s`" % workload, ""]
            if status == "new":
                out.append("New workload: not compared.")
                continue
            out += ["| metric | unit | bound | parent | change | ratio | |",
                    "|---|---|---|---|---|---|---|"]
        out.append("| `%s` | %s | %g | %.4g | %.4g | %.3f | %s |"
                   % (name, unit, bound, p, c, med, status))
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args()

    sides = {}
    for side, checkout in (("parent", args.parent_dir),
                           ("change", args.change_dir)):
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            sides[side] = (checkout, json.load(f))
    benchmark = sides["change"][1]
    parent_names = {w["name"] for w in sides["parent"][1]["workloads"]}
    results = {"parent": {}, "change": {}}
    out_dir = os.path.join(args.change_dir, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "perf-gate.jsonl"), "w") as log:
        for workload in (w["name"] for w in benchmark["workloads"]):
            order = (["parent", "change"] if workload in parent_names
                     else ["change"])
            for pair in range(PAIRS):
                for side in order[::1 if pair % 2 == 0 else -1]:
                    checkout, bench = sides[side]
                    result = run_once(checkout, bench["command"], workload)
                    results[side].setdefault(workload, []).append(result)
                    log.write(json.dumps({"workload": workload, "side": side,
                                          "pair": pair + 1,
                                          "result": result}) + "\n")
                    log.flush()
                    wall = result.get("metrics", {}).get("wall_s", {})
                    print("perf_gate: %s pair %d %s: wall_s %s"
                          % (workload, pair + 1, side, wall.get("value")),
                          file=sys.stderr)

    rows, failures = verdict(results["parent"], results["change"], benchmark)
    print("### Perf gate: %d pairs per workload, seed %d, %g s runs"
          % (PAIRS, SEED, SECONDS))
    print(table(rows) + "\n")
    if failures:
        print("**Failed:**\n\n" + "\n".join("- " + f for f in failures))
        return 1
    print("Passed: every run correct, every metric within its bound.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
