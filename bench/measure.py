"""Timed rounds of one workload, run in a process of its own.

Usage: python3 bench/measure.py --workload NAME --seed N --seconds S
           --trace 0|1 --inputs DIR

Loads the channels that bench/inputs.py wrote, runs whole rounds until S
seconds have passed, checks every operation, and prints one JSON line.
Without --trace 1 it reports ops_per_s and peak_rss_mb; with it, the
per-layer figures of bench/tracer.py.  bench/run.py starts this script.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import statistics
import time

import numpy as np

import cqcovert
from cqcovert import channel_io
from cqcovert.config import FRANK_WOLFE_GAP_TOL

import checks
import inputs
from tracer import Tracer


def load(entry):
    data = channel_io.load_channel_data(entry["path"])
    ch, _ = cqcovert.sanitize(cqcovert.CQWiretapChannel.from_matrices(data["sigma"], data["rho"]))
    return ch


class Sweep:
    """sqrt_law_sweep over an (n, M) grid; one operation is one (n, M, seed) cell."""

    def __init__(self, manifest, seed, n_list, m_list, seeds_per_round, workers, exact):
        entry = manifest["channels"][0]
        self.channel = load(entry)
        self.raw = inputs.read_channel(entry["path"])
        self.seed = seed
        self.n_list, self.m_list = n_list, m_list
        self.seeds_per_round = seeds_per_round
        self.workers = workers
        self.exact = exact

    def round_inputs(self, index):
        return inputs.round_seeds(self.seed, index, self.seeds_per_round)

    def ops(self, seeds) -> int:
        return len(self.n_list) * len(self.m_list) * len(seeds)

    def messages(self, seeds) -> int:
        return sum(self.m_list) * len(self.n_list) * len(seeds)

    def run(self, seeds, workers):
        return cqcovert.sqrt_law_sweep(
            self.channel, inputs.DELTA, self.n_list, self.m_list, inputs.EPS_TARGET,
            seeds, beta=inputs.BETA, workers=workers)

    def pgm_sample(self, round_index, seeds):
        """Cells whose PGM error is recomputed: those of the first round's first seed."""
        if round_index > 0:
            return set()
        return {(n, m, seeds[0]) for n in self.n_list for m in self.m_list}

    def check(self, rounds):
        """(attempted, failed, wrong, problems) over all rounds: an operation
        that raised is failed; one whose output fails a check is also wrong."""
        checker = checks.SweepChecker(*self.raw, self.exact)
        attempted = failed = wrong = 0
        problems = []
        compared = False
        for index, (seeds, out, workers, _) in enumerate(rounds):
            attempted += self.ops(seeds)
            if isinstance(out, BaseException):
                failed += self.ops(seeds)
                problems.append(f"round {index} raised {out!r}")
                continue
            sample = self.pgm_sample(index, seeds)
            serial = {}
            if workers > 1 and not compared:
                # The first pooled round's first seed, rerun serially.
                compared = True
                ref = self.run([seeds[0]], 1)
                serial = {(r.n, r.num_messages, r.seed): checks.fingerprint(r) for r in ref}
            for report in out:
                key = (report.n, report.num_messages, report.seed)
                found = checker.problems(report, key in sample)
                if key in serial and serial[key] != checks.fingerprint(report):
                    found.append("workers=2 report differs from workers=1")
                if found:
                    failed += 1
                    wrong += 1
                    problems.append(f"cell {key}: {'; '.join(found)}")
        return attempted, failed, wrong, problems

    def write_csv(self, rounds, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "n", "M", "seed", "epsilon_n", "covert_div",
                             "covert_div_avg", "normalized_throughput", "converse_bound"])
            for index, (_, out, _, _) in enumerate(rounds):
                for r in [] if isinstance(out, BaseException) else out:
                    writer.writerow([index, r.n, r.num_messages, r.seed, repr(r.epsilon_n),
                                     repr(r.covert_div), repr(r.covert_div_avg),
                                     repr(r.normalized_throughput), repr(r.converse_bound)])


class DeepSweep(Sweep):
    def pgm_sample(self, round_index, seeds):
        cells = [(n, m) for n in self.n_list for m in self.m_list]
        n, m = cells[round_index % len(cells)]
        return {(n, m, seeds[0])}


class Solve:
    """Single-letter solves; one operation is one channel solved."""

    workers = 1

    def __init__(self, manifest, seed):
        self.entries = manifest["channels"]
        self.channels = [load(e) for e in self.entries]
        self.seed = seed

    def round_inputs(self, index):
        return None

    def ops(self, _) -> int:
        return len(self.entries)

    def messages(self, _) -> int:
        return 0

    def run(self, _, workers):
        out = []
        for entry, ch in zip(self.entries, self.channels):
            try:
                if entry["kind"] == "square-root":
                    regime = cqcovert.classify(ch).regime
                    out.append((regime, cqcovert.scaling_constant(ch)))
                else:
                    out.append((None, cqcovert.covert_rate(ch)))
            except Exception as exc:  # counted as a failed operation
                out.append((None, exc))
        return out

    def iterations(self, out) -> int:
        return sum(res.iterations for (_, res), e in zip(out, self.entries)
                   if e["kind"] == "positive-rate" and not isinstance(res, Exception))

    def check(self, rounds):
        attempted = failed = wrong = 0
        problems = []
        rng = np.random.default_rng([self.seed, 11])
        first = rounds[0][1]
        for index, (_, out, _, _) in enumerate(rounds):
            for i, (entry, ch, (regime, res)) in enumerate(zip(self.entries, self.channels, out)):
                attempted += 1
                name = os.path.basename(entry["path"])
                if isinstance(res, Exception):
                    failed += 1
                    problems.append(f"{name} raised {res!r}")
                    continue
                if index > 0:
                    # Later rounds repeat the first one's inputs: outputs must match bit for bit.
                    same = checks.fingerprint(res) == checks.fingerprint(first[i][1])
                    found = [] if same else ["rerun differs from the first round"]
                elif entry["kind"] == "square-root":
                    sigma, rho = inputs.read_channel(entry["path"])
                    found = [] if regime == cqcovert.Regime.SQUARE_ROOT else [f"regime {regime}"]
                    found += checks.scaling_problems(
                        res, sigma, rho, rng,
                        lambda step, ch=ch: cqcovert.scaling_constant_grid_oracle(ch, step))
                else:
                    sigma, rho = inputs.read_channel(entry["path"])
                    witness = cqcovert.classify(ch).mixture_witness
                    found = [] if res.rate > 0.0 else ["rate is not positive"]
                    found += checks.rate_problems(res, witness, sigma, rho, FRANK_WOLFE_GAP_TOL)
                if found:
                    failed += 1
                    wrong += 1
                    problems.append(f"{name}: {'; '.join(found)}")
        return attempted, failed, wrong, problems


def make_workload(name, manifest, seed):
    if name == "sweep-shallow":
        # The idle eavesdropper state is maximally mixed, so above n = 5 the
        # covertness reference is n log 2 minus the mixture entropy.
        return Sweep(manifest, seed, inputs.SHALLOW_N, inputs.SHALLOW_M,
                     inputs.SHALLOW_SEEDS_PER_ROUND, inputs.POOL_WORKERS,
                     lambda n: "logm" if n <= 5 else "entropy")
    if name == "sweep-deep":
        return DeepSweep(manifest, seed, inputs.DEEP_N, inputs.DEEP_M,
                         inputs.DEEP_SEEDS_PER_ROUND, 1, lambda n: "classical")
    if name == "solve":
        return Solve(manifest, seed)
    raise ValueError(f"unknown workload {name!r}")


def timed(workload, round_inputs, workers):
    start = time.perf_counter()
    try:
        out = workload.run(round_inputs, workers)
    except Exception as exc:  # the whole round counts as failed
        out = exc
    return out, time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        seeds = workload.round_inputs(len(rounds))
        out, elapsed = timed(workload, seeds, workload.workers)
        rounds.append((seeds, out, workload.workers, elapsed))
    rss = peak_rss_mb()
    rates = [workload.ops(r[0]) / r[3] for r in rounds]
    return rounds, {"ops_per_s": statistics.median(rates), "peak_rss_mb": rss}


def measure_traced(workload, seconds, trace_path):
    """Untraced and traced serial rounds of the first round's inputs, in
    alternation so that both see the same host; for a sweep, also the same
    round with the pool, for ``pool_speedup``."""
    seeds = workload.round_inputs(0)
    rounds, untraced, traced = [], [], []
    # An untimed serial round first, so that first-call costs in this
    # process fall on neither side of the comparison.
    out, elapsed = timed(workload, seeds, 1)
    rounds.append((seeds, out, 1, elapsed))
    if isinstance(workload, Sweep):
        out, pooled = timed(workload, seeds, inputs.POOL_WORKERS)
        rounds.append((seeds, out, inputs.POOL_WORKERS, pooled))

    tracer = Tracer()
    iterations = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        out, elapsed = timed(workload, seeds, 1)
        untraced.append((seeds, out, 1, elapsed))
        tracer.install()
        try:
            with tracer.span("bench.round"):
                out, elapsed = timed(workload, seeds, 1)
        finally:
            tracer.uninstall()
        traced.append((seeds, out, 1, elapsed))
        if isinstance(workload, Solve):
            iterations += workload.iterations(out)
    rounds.extend(untraced + traced)
    tracer.write(trace_path)
    base = statistics.median(r[3] for r in untraced)
    pool_speedup = base / pooled if isinstance(workload, Sweep) else 0.0

    n = len(traced)
    summary = tracer.summary()
    calls = {k: v / n for k, v in summary["calls"].items()}
    incl = {k: v / n for k, v in summary["inclusive_s"].items()}
    own = {k: v / n for k, v in summary["self_s"].items()}

    def c(name):
        return calls.get(name, 0.0)

    def t(name):
        return incl.get(name, 0.0)

    messages = workload.messages(seeds)
    traced_time = statistics.median(r[3] for r in traced)
    metrics = {
        "operators.eigh_calls": c("operators.eigh") + c("operators.eigvalsh"),
        "operators.eigh_s": t("operators.eigh") + t("operators.eigvalsh"),
        "operators.eigh_dim3_sum": summary["eigh_dim3_sum"] / n,
        "operators.kron_calls": c("operators.kron"),
        "operators.kron_s": t("operators.kron"),
        "operators.hermitian_init_calls": c("operators.hermitian_init"),
        "operators.hermitian_init_s": t("operators.hermitian_init"),
        "operators.tensor_power_s": t("operators.tensor_power"),
        "divergences.relative_entropy_calls": c("divergences.relative_entropy"),
        "divergences.relative_entropy_s": t("divergences.relative_entropy"),
        "divergences.von_neumann_entropy_s": t("divergences.von_neumann_entropy"),
        "divergences.holevo_information_s": t("divergences.holevo_information"),
        "divergences.chi_squared_s": t("divergences.chi_squared"),
        "channel.product_output_state_calls": c("channel.product_output_state"),
        "channel.product_output_state_per_cell":
            c("channel.product_output_state") / messages if messages else 0.0,
        "channel.product_output_state_s": t("channel.product_output_state"),
        "simulate.covertness_divergence_s": t("simulate.covertness_divergence"),
        "simulate.pgm_error_probability_s": t("simulate.pgm_error_probability"),
        "simulate.sample_codebook_s": t("simulate.sample_codebook"),
        "simulate.pool_speedup": pool_speedup,
        "scaling.converse_chain_s": t("scaling.converse_chain"),
        "scaling.scaling_constant_calls": c("scaling.scaling_constant"),
        "scaling.scaling_constant_s": t("scaling.scaling_constant"),
        "scaling.covert_rate_s": t("scaling.covert_rate"),
        "scaling.covert_rate_iterations": iterations / n,
        "scaling.linprog_calls": c("scaling.linprog"),
        "scaling.linprog_s": t("scaling.linprog"),
        "regime.classify_calls": c("regime.classify"),
        "regime.classify_s": t("regime.classify"),
        "regime.linprog_calls": c("regime.linprog"),
        "trace.overhead": traced_time / base,
    }
    for layer in ("operators", "divergences", "channel", "simulate", "scaling", "regime"):
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    return rounds, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True)
    args = parser.parse_args()

    with open(os.path.join(args.inputs, "manifest.json")) as fh:
        manifest = json.load(fh)
    workload = make_workload(args.workload, manifest, args.seed)
    if args.trace:
        rounds, metrics = measure_traced(workload, args.seconds,
                                         os.path.join(args.inputs, "trace.json"))
    else:
        rounds, metrics = measure(workload, args.seconds)
    if isinstance(workload, Sweep):
        workload.write_csv(rounds, os.path.join(args.inputs, "cells.csv"))
    attempted, failed, wrong, problems = workload.check(rounds)
    print(json.dumps({"attempted": attempted, "failed": failed, "wrong": wrong,
                      "problems": problems, "round_s": [r[3] for r in rounds],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
