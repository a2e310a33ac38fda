#!/usr/bin/env python3
"""Build nanod and the perfbench binary from this checkout, run one workload
for one seed, and print every metric by name with its unit. The last line
of standard output is the JSON result.

    python3 perfbench/run.py --workload svc_hot --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Every run pins perfbench and the nanod it spawns to one fixed pair of CPUs
and sets NANO_EXEC_THREADS=1 (one exec lane). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("svc_hot", "engine_cold")
DEFAULT_SEED = 1
# The held-out seed: used only to confirm a claimed gain on inputs nobody
# tuned against.
HELD_OUT_SEED = 20011
RUN_TIMEOUT_S = 150
TARGETS = ("nanod", "perfbench", "perfbench_selftest")


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no program sources beside perfbench/ (CMakeLists.txt and src/ "
            "at the checkout root)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", *TARGETS, "-j", jobs])
    with open(log_path, "ab") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path, "rb") as f:
                    tail = f.read()[-4000:].decode(errors="replace")
                die("build failed: " + " ".join(step) + "\n" + tail)


def build_type():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def pinned_cpus():
    """The first two CPUs this process may run on (one if that is all)."""
    return sorted(os.sched_getaffinity(0))[:2]


def cpu_times():
    rows = {}
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith("cpu"):
                parts = line.split()
                rows[parts[0]] = [int(x) for x in parts[1:9]]
    return rows


def steal_share(before, after, names):
    """Steal ticks over all ticks (user..steal) of the named /proc/stat rows."""
    steal = total = 0
    for name in names:
        if name in before and name in after:
            delta = [b - a for a, b in zip(before[name], after[name])]
            steal += delta[7]
            total += sum(delta)
    return steal / total if total > 0 else 0.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """git commit when the checkout is a repository, and always a digest of
    the program sources (an exported source tree has no .git)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    commit = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return commit, digest.hexdigest()[:16]


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_pinned(cmd, cpus):
    env = dict(os.environ)
    env["NANO_EXEC_THREADS"] = "1"
    env.pop("NANO_OBS", None)
    os.sched_setaffinity(0, cpus)  # inherited by perfbench and its nanod
    before = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        die("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc.pid)
    after = cpu_times()
    return proc.returncode, out.decode(errors="replace"), before, after


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own self-tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    bindir = os.path.join(BUILD, "bin")
    cpus = pinned_cpus()
    if args.self_test:
        code, out, _, _ = run_pinned([os.path.join(bindir, "perfbench_selftest")], cpus)
        sys.stdout.write(out)
        sys.exit(code)

    workdir = os.path.join(BUILD_ROOT, "runs", "%s-seed%d-trace%d" %
                           (args.workload, args.seed, args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(bindir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--nanod", os.path.join(BUILD, "tools", "nanod"),
           "--workdir", workdir]
    code, out, before, after = run_pinned(cmd, cpus)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines:
        sys.stderr.write(out)
        die("perfbench exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        die("perfbench printed no result")

    record = {}
    for line in lines[:-1]:
        if line.startswith("RUNINFO "):
            record.update(json.loads(line[len("RUNINFO "):]))
        else:
            print(line)
    commit, digest = source_identity()
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "pinned_cpus": cpus, "NANO_EXEC_THREADS": "1", "build_type": build_type(),
        "git_commit": commit, "source_digest": digest,
        "steal_share_host": round(steal_share(before, after, ["cpu"]), 6),
        "steal_share_pinned": round(steal_share(
            before, after, ["cpu%d" % c for c in cpus]), 6),
    })
    print("run_record " + json.dumps(record, sort_keys=True))

    if not isinstance(result, dict) or \
            sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("perfbench result has unexpected keys")
    expected = expected_metrics(args.trace == 1)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            die("metrics differ from BENCHMARK.json: %s" %
                sorted(set(got.items()) ^ set(expected.items())))
    print(lines[-1])


if __name__ == "__main__":
    main()
