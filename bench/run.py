"""End-to-end benchmark of cqcovert: one workload, one seed, one run.

Usage (from the root of a source checkout; nothing needs installing):

    python3 bench/run.py --workload sweep-shallow|sweep-deep|solve \
        --seed N --seconds S --trace 0|1

Writes the workload's channels as JSON files under bench/out/, times the
cold set-up in fresh interpreters (bench/probe.py), then runs the timed
rounds in one more process (bench/measure.py).  Prints each metric by name
and unit, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep-shallow", "sweep-deep", "solve")

# Timed cold starts per run, half before and half after the timed rounds;
# set-up time is their median.
SETUP_PROBES = 8
CLASSIFY_COLD_RUNS = 3
# Every child gets one BLAS thread, so the load is this process's children
# plus at most the two pool workers of sweep-shallow.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}



def declared_units(trace: bool) -> dict:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_child(args, timeout):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def cold_setup(files, count, deadline) -> list:
    """Stage times of ``count`` cold starts of bench/probe.py."""
    stages = []
    for _ in range(count):
        code, out, err = run_child([sys.executable, os.path.join(BENCH, "probe.py"), *files],
                                   timeout=max(deadline - time.monotonic(), 1.0))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.strip()[-400:]}")
        stages.append(json.loads(out.strip().splitlines()[-1]))
    return stages


def classify_cold(path, deadline) -> float:
    """Median wall time of a cold ``python -m cqcovert.cli classify``."""
    times = []
    for _ in range(CLASSIFY_COLD_RUNS):
        start = time.perf_counter()
        code, out, err = run_child([sys.executable, "-m", "cqcovert.cli", "classify", path],
                                   timeout=max(deadline - time.monotonic(), 1.0))
        times.append(time.perf_counter() - start)
        if code != 0 or "regime" not in json.loads(out):
            raise RuntimeError(f"cqcovert classify exited {code}: {err.strip()[-400:]}")
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description="cqcovert end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + 170.0

    if not os.path.isfile(os.path.join(SRC, "cqcovert", "__init__.py")):
        print(f"bench: no package source at {SRC}; run from a cqcovert checkout",
              file=sys.stderr)
        return 2
    for key, value in PINNED.items():
        os.environ[key] = value
    sys.path.insert(0, BENCH)
    import inputs
    import yardstick

    out_dir = os.path.join(BENCH, "out", f"{args.workload}-seed{args.seed}")
    manifest = inputs.write_inputs(args.workload, args.seed, out_dir)
    files = [entry["path"] for entry in manifest["channels"]]

    cold_setup(files, 1, deadline)  # warm-up: byte-compiles the package, fills the file cache
    stages = cold_setup(files, SETUP_PROBES // 2, deadline)
    classify_s = classify_cold(files[0], deadline) if args.trace else None

    code, out, err = run_child(
        [sys.executable, os.path.join(BENCH, "measure.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--inputs", out_dir],
        timeout=max(deadline - time.monotonic(), 1.0))
    if code != 0:
        print(f"bench: measure.py exited {code}:\n{err.strip()[-2000:]}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    stages += cold_setup(files, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    setup = {key: statistics.median(s[key] for s in stages) for key in stages[0] if key != "ok"}

    if args.trace:
        values = dict(result["metrics"])
        values["cli.import_s"] = setup["import_s"]
        values["cli.classify_cold_s"] = classify_s
        values["channel_io.load_channel_data_s"] = setup["load_s"]
        values["channel.sanitize_s"] = setup["sanitize_s"]
    else:
        # Scale the set-up time to the reference host speed by the yardstick
        # that each cold start timed right after its set-up.
        speed = yardstick.REFERENCE_S / setup["yardstick_s"]
        values = {"setup_s": setup["setup_s"] * speed, **result["metrics"]}
        print(f"host speed {speed:.4f} of reference at set-up; "
              f"unscaled setup_s {setup['setup_s']:.6g} s")
    units = declared_units(args.trace)
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, rounds {len(result['round_s'])}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    line = json.dumps({"correct": result["wrong"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
