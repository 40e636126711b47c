#!/usr/bin/env python3
"""End-to-end benchmark of the decomposition stack.

Run from the repository root:

    python3 sdbench/run.py --workload sim_grid --seed 1 --seconds 60 --trace 0
    python3 sdbench/run.py --workload all            # every workload in turn
    python3 sdbench/run.py --self-test               # failure accounting

Builds sdbench/main.exe with dune, then runs each workload in a child
process of its own (single-threaded), so peak memory belongs to one
workload and one workload's heap cannot slow the next one's GC. The child
times the jobs and checks every output; this script adds the child's
peak resident memory and the failure count. A child that dies counts
every job it attempted as failed.

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
when every job passed. Graphs and spans go to sdbench/_out.
"""

import argparse
import glob
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

HERE = "sdbench"
EXE = os.path.join("_build", "default", HERE, "main.exe")
OUT = os.path.join(HERE, "_out")
CHILD_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        cand = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(cand, os.X_OK):
            return cand
    return None


def build():
    """Build the benchmark executable from the sources in the checkout."""
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        log("sdbench: run from the repository root (no dune-project or lib/ here)")
        return False
    dune = find_dune()
    if dune is None:
        log("sdbench: dune not found")
        return False
    # no shared dune cache: the build reads and writes only the checkout
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./%s/main.exe" % HERE],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    return proc.returncode == 0 and os.path.isfile(EXE)


def run_child(argv, kill_after_jobs=None):
    """Run one workload process; return (summary or None, jobs seen,
    peak RSS in MB, exit description)."""
    rfd, wfd = os.pipe()
    pid = os.posix_spawn(
        argv[0],
        argv,
        os.environ,
        file_actions=[(os.POSIX_SPAWN_DUP2, wfd, 1), (os.POSIX_SPAWN_CLOSE, rfd)],
    )
    os.close(wfd)
    jobs, summary, buf = 0, None, b""
    deadline = time.monotonic() + CHILD_LIMIT_S
    with os.fdopen(rfd, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                log("sdbench: workload process over %.0f s, killed" % CHILD_LIMIT_S)
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([pipe], [], [], left)
            if not ready:
                continue
            chunk = os.read(pipe.fileno(), 65536)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for raw in lines:
                line = raw.decode(errors="replace")
                log(line)
                if line.startswith("job "):
                    jobs += 1
                    if kill_after_jobs is not None and jobs >= kill_after_jobs:
                        os.kill(pid, signal.SIGKILL)
                elif line.startswith("{"):
                    summary = json.loads(line)
    _, status, usage = os.wait4(pid, 0)
    if os.WIFSIGNALED(status):
        how = "killed by signal %d" % os.WTERMSIG(status)
        summary = None
    else:
        how = "exit %d" % os.WEXITSTATUS(status)
    # ru_maxrss is in KiB on Linux
    return summary, jobs, usage.ru_maxrss / 1024.0, how


def run_workload(name, seed, seconds, trace, spec, kill_after_jobs=None):
    argv = [os.path.abspath(EXE), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    summary, jobs, rss_mb, how = run_child(argv, kill_after_jobs)
    if summary is None:
        log("sdbench: %s produced no result (%s); all %d attempted jobs failed"
            % (name, how, max(1, jobs)))
        attempted = failed = max(1, jobs)
        child = {}
    else:
        attempted, failed = summary["attempted"], summary["failed"]
        child = summary["metrics"]
    child["peak_rss_mb"] = rss_mb
    child["fail_frac"] = failed / attempted
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if summary is not None and m["name"] not in child:
            log("sdbench: %s did not report %s" % (name, m["name"]))
            failed = attempted
        metrics[m["name"]] = {"value": child.get(m["name"], 0.0), "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_table(name, result):
    print("%s: %d jobs, %d failed" % (name, result["attempted"], result["failed"]))
    for key, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (key, m["value"], m["unit"]))


def self_test(spec):
    ok = subprocess.run([EXE, "--self-test", "--out", OUT]).returncode == 0
    killed = run_workload("sim_grid", 1, 5, 0, spec, kill_after_jobs=1)
    dead_ok = (not killed["correct"] and killed["attempted"] >= 1
               and killed["failed"] == killed["attempted"])
    print("self-test killed-child %s" % ("ok" if dead_ok else "WRONG"))
    return ok and dead_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json") or not build():
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        return 0 if self_test(spec) else 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log("sdbench: unknown workload %s (have: %s)" % (args.workload, ", ".join(names)))
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    todo = names if args.workload == "all" else [args.workload]
    results = {}
    for name in todo:
        results[name] = run_workload(name, args.seed, seconds, args.trace, spec)
        print_table(name, results[name])
    if len(todo) == 1:
        final = results[todo[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
