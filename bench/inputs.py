"""Seeded inputs for the benchmark workloads, written as channel JSON files.

The generators here use only numpy, never the package, so the program
receives inputs it did not make.  The channels of a workload come from one
``numpy.random.default_rng([seed, tag])`` stream: the same seed gives the
same files, byte for byte.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Sweep settings shared by the workloads and their checks.
DELTA = 0.05
EPS_TARGET = 0.1
BETA = 0.5

SHALLOW_N = list(range(2, 8))
SHALLOW_M = [2, 4, 8, 16]
SHALLOW_SEEDS_PER_ROUND = 10
POOL_WORKERS = 2

DEEP_N = [8, 9]
DEEP_M = [4, 16]
DEEP_SEEDS_PER_ROUND = 1

# Square-root channels on both sides of _solve_ray_qp's switch at r = k - 1 = 16.
# Support enumeration (k <= 17): two draws per (k, dZ) from the seed, since
# its cost depends on the optimal support.  SLSQP (k >= 18): one fixed draw
# per (k, dZ), the same for every seed, because on fresh draws SLSQP fails
# now and then (see CHANGES.md, FOUND), and a failure on some seeds only
# would make the share of failed operations differ from run to run.
SOLVE_ENUM_K = list(range(2, 18))
SOLVE_SLSQP_K = list(range(18, 25))
SOLVE_SQRT_DZ = [2, 3, 4]
SOLVE_ENUM_REPEATS = 2
# Positive-rate channels whose eavesdropper mixture is unique: k - 1 <= dZ^2
# makes the feasible set of covert_rate a segment.
SOLVE_POSITIVE = [(k, dz) for dz in (2, 3) for k in range(3, dz * dz + 2)]
SOLVE_POSITIVE_REPEATS = 2


def random_density(rng, dim, floor=0.2):
    """Ginibre state mixed with ``floor`` of the maximally mixed state."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    mat = mat / np.trace(mat).real
    return (1.0 - floor) * mat + floor * np.eye(dim) / dim


def _pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def channel_payload(sigma, rho) -> dict:
    """The package's schema-1 channel file for receiver and eavesdropper matrices."""
    return {
        "schema_version": "1",
        "k": len(sigma),
        "dims": {"dY": int(sigma[0].shape[0]), "dZ": int(rho[0].shape[0])},
        "sigma": [_pairs(m) for m in sigma],
        "rho": [_pairs(m) for m in rho],
    }


def read_channel(path):
    """Raw (sigma, rho) matrices of a channel file, parsed without the package."""
    with open(path) as fh:
        payload = json.load(fh)

    def mats(side):
        return [np.asarray(m, dtype=float) @ np.array([1.0, 1j]) for m in payload[side]]

    return mats("sigma"), mats("rho")


def shallow_channel(rng):
    """The qubit channel of acceptance criterion 8: noncommuting receiver
    letters, eavesdropper letters close to the maximally mixed idle state."""
    sigma = [np.diag([0.9, 0.1]).astype(complex), np.array([[0.5, 0.4], [0.4, 0.5]], complex)]
    rho = [np.diag([0.5, 0.5]).astype(complex), np.array([[0.55, 0.05], [0.05, 0.45]], complex)]
    return sigma, rho


def deep_channel(rng):
    """Qubit channel with diagonal (commuting) eavesdropper letters a few
    percent apart and noncommuting receiver letters."""
    while True:
        sigma = [random_density(rng, 2), random_density(rng, 2)]
        comm = sigma[0] @ sigma[1] - sigma[1] @ sigma[0]
        if np.linalg.norm(comm) > 0.05:
            break
    p0 = rng.uniform(0.4, 0.6)
    p1 = p0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.03, 0.06)
    rho = [np.diag([p0, 1.0 - p0]).astype(complex), np.diag([p1, 1.0 - p1]).astype(complex)]
    return sigma, rho


def square_root_channel(rng, k, dz, dy=2):
    """Channel whose idle eavesdropper state is no mixture of the others.

    Every rho(x), x != 0, puts more weight on a random direction v than
    rho(0) does, so the hyperplane <v|.|v> separates rho(0) from their
    convex hull; full-rank receiver states meet the support condition.
    The regime is therefore SquareRoot by construction.
    """
    v = rng.normal(size=dz) + 1j * rng.normal(size=dz)
    v = v / np.linalg.norm(v)
    proj = np.outer(v, v.conj())
    rho = [random_density(rng, dz)]
    level = float(np.vdot(v, rho[0] @ v).real)
    while len(rho) < k:
        weight = rng.uniform(0.2, 0.6)
        tau = (1.0 - weight) * random_density(rng, dz) + weight * proj
        if float(np.vdot(v, tau @ v).real) > level + 0.02:
            rho.append(tau)
    sigma = [random_density(rng, dy) for _ in range(k)]
    return sigma, rho


def positive_rate_channel(rng, k, dz, dy):
    """Channel whose idle eavesdropper state is a Dirichlet mixture of the
    others, so the regime is PositiveRate by construction."""
    rho = [random_density(rng, dz) for _ in range(k - 1)]
    weights = rng.dirichlet(np.ones(k - 1))
    rho.insert(0, sum(w * r for w, r in zip(weights, rho)))
    sigma = [random_density(rng, dy) for _ in range(k)]
    return sigma, rho


def round_seeds(seed: int, round_index: int, count: int) -> list:
    """Codebook seeds of one sweep round, a function of (seed, round) only."""
    rng = np.random.default_rng([seed, round_index, 7])
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


def write_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Generate the workload's channels into ``out_dir`` and return its manifest."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    entries = []

    def add(name, kind, sigma, rho):
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(channel_payload(sigma, rho), fh)
        entries.append({"path": path, "kind": kind, "k": len(sigma),
                        "dZ": int(rho[0].shape[0])})

    if workload == "sweep-shallow":
        add("shallow", "sweep", *shallow_channel(rng))
    elif workload == "sweep-deep":
        add("deep", "sweep", *deep_channel(rng))
    elif workload == "solve":
        for rep in range(SOLVE_ENUM_REPEATS):
            for k in SOLVE_ENUM_K:
                for dz in SOLVE_SQRT_DZ:
                    add(f"sqrt-{rep}-k{k}-dz{dz}", "square-root",
                        *square_root_channel(rng, k, dz))
        fixed = np.random.default_rng([0, 1])
        for k in SOLVE_SLSQP_K:
            for dz in SOLVE_SQRT_DZ:
                add(f"slsqp-k{k}-dz{dz}", "square-root", *square_root_channel(fixed, k, dz))
        for rep in range(SOLVE_POSITIVE_REPEATS):
            for i, (k, dz) in enumerate(SOLVE_POSITIVE):
                dy = 2 + (i + rep) % 2
                add(f"pos-{rep}-k{k}-dz{dz}", "positive-rate",
                    *positive_rate_channel(rng, k, dz, dy))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    manifest = {"workload": workload, "seed": seed, "channels": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return manifest
