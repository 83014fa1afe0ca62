"""Command-line front end.

Subcommands: validate | classify | rate | scaling-constant | expansion-check
| simulate.  Channels come in as JSON (path or "-" for standard input); every
command prints a JSON report carrying the schema version and the tolerance
configuration, so results are auditable and reruns are byte-identical.

Exit codes: 0 success, 2 validation failure, 3 unusable channel, 4 wrong
regime for the requested command, 5 resource cap exceeded or malformed,
6 covert-rate ascent did not converge, 7 numerical failure, 8 invalid
command-line argument.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .config import dim_cap, tolerances
from .channel import CQWiretapChannel, InputDistribution, sanitize, validate
from .channel_io import SCHEMA_VERSION, load_channel_data
from .errors import (
    ChannelFormatError,
    DimensionCapError,
    UnusableChannelError,
    WrongRegimeError,
)
from .operators import DensityOperator
from .regime import classify
from .scaling import (
    chi_sq_expansion_check,
    covert_rate,
    holevo_expansion_check,
    scaling_constant,
    scaling_constant_grid_oracle,
)
from .simulate import SimParams, sqrt_law_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNUSABLE = 3
EXIT_WRONG_REGIME = 4
EXIT_RESOURCE_CAP = 5
EXIT_NOT_CONVERGED = 6
EXIT_NUMERICAL = 7
EXIT_INVALID_ARGUMENT = 8


class _ValidationFailure(Exception):
    def __init__(self, diagnostics):
        super().__init__("channel failed validation")
        self.diagnostics = diagnostics


class _InvalidArgument(Exception):
    """A command-line value that parses but is out of range, or does not parse."""


def _envelope(body: dict, units: str = "nats") -> dict:
    return {"schema_version": SCHEMA_VERSION, "units": units,
            "tolerances": tolerances(), **body}


def _emit(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_sanitized(path: str):
    data = load_channel_data(path)
    diag = validate(data["sigma"], data["rho"])
    if not diag.ok:
        raise _ValidationFailure(diag)
    ch = CQWiretapChannel.from_matrices(data["sigma"], data["rho"])
    clean, removed = sanitize(ch)
    return clean, removed


def _dist(dist) -> list:
    if dist is None:
        return None
    return [float(p) for p in dist.probs]


def _to_bits(value: float) -> float:
    return value / math.log(2.0)


def cmd_validate(args) -> int:
    try:
        data = load_channel_data(args.channel)
    except ChannelFormatError as exc:
        _emit(_envelope({"ok": False, "problems": [
            {"kind": "shape", "side": None, "index": None, "detail": str(exc)}
        ]}))
        return EXIT_VALIDATION
    diag = validate(data["sigma"], data["rho"])
    _emit(_envelope(diag.to_dict()))
    return EXIT_OK if diag.ok else EXIT_VALIDATION


def cmd_classify(args) -> int:
    ch, removed = _load_sanitized(args.channel)
    report = classify(ch)
    _emit(_envelope({
        "regime": report.regime.value,
        "mixture_witness": _dist(report.mixture_witness),
        "support_violations": list(report.support_violations),
        "lp_residual": report.lp_residual,
        "mixture_on_uninformative_only": report.mixture_on_uninformative_only,
        "removed_symbols": removed,
    }))
    return EXIT_OK


def cmd_rate(args) -> int:
    ch, removed = _load_sanitized(args.channel)
    result = covert_rate(ch)
    scale = _to_bits if args.bits else (lambda v: v)
    _emit(_envelope({
        "rate": scale(result.rate),
        "optimizer": _dist(result.optimizer),
        "feasibility_residual": result.feasibility_residual,
        "iterations": result.iterations,
        "gap": result.gap,
        "converged": result.converged,
        "removed_symbols": removed,
    }, units="bits" if args.bits else "nats"))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_scaling_constant(args) -> int:
    ch, removed = _load_sanitized(args.channel)
    result = scaling_constant(ch)
    scale = _to_bits if args.bits else (lambda v: v)
    body = {
        "L": scale(result.L),
        "optimizer": _dist(result.optimizer),
        "d": [scale(v) for v in result.d],
        "gram": [[float(v) for v in row] for row in result.gram],
        "qp_objective": result.qp_objective,
        "kkt_residual": result.kkt_residual,
        "support": list(result.support),
        "removed_symbols": removed,
    }
    if args.oracle_resolution is not None:
        oracle = scaling_constant_grid_oracle(ch, args.oracle_resolution)
        body["oracle"] = {
            "resolution": args.oracle_resolution,
            "value": scale(oracle),
            "abs_diff": scale(abs(oracle - result.L)),
        }
    _emit(_envelope(body, units="bits" if args.bits else "nats"))
    return EXIT_OK


def cmd_expansion_check(args) -> int:
    alphas = _parse_list(args.alphas, "--alphas", float, lambda a: 0.0 < a <= 0.1,
                         "numbers in (0, 0.1]")
    ch, removed = _load_sanitized(args.channel)
    # Perturb toward the uniform mixture of the nonzero symbols.
    probs = np.zeros(ch.k)
    probs[1:] = 1.0 / (ch.k - 1)
    p_tilde = InputDistribution(probs)
    rho_tilde = sum(p_tilde.probs[x] * ch.rho[x].mat for x in range(1, ch.k))
    chi_report = chi_sq_expansion_check(ch.rho[0], DensityOperator(rho_tilde, validate=False), alphas)
    holevo_report = holevo_expansion_check(ch, p_tilde, alphas)
    scale = _to_bits if args.bits else (lambda v: v)
    _emit(_envelope({
        "p_tilde": _dist(p_tilde),
        "chi_squared_check": {
            "alphas": list(chi_report.alphas),
            "ratios": list(chi_report.ratios),
            "chi_squared": chi_report.chi_squared_value,
            "degenerate": chi_report.degenerate,
        },
        "holevo_check": {
            "alphas": list(holevo_report.alphas),
            "slopes": [scale(v) for v in holevo_report.slopes],
            "limit": scale(holevo_report.limit),
        },
        "removed_symbols": removed,
    }, units="bits" if args.bits else "nats"))
    return EXIT_OK


def _parse_list(text: str, flag: str, convert, valid, what: str) -> list:
    """Comma-separated values of ``flag``; each must convert and be ``valid``."""
    try:
        values = [convert(item) for item in text.split(",") if item != ""]
    except ValueError:
        values = []
    if not values or not all(valid(v) for v in values):
        raise _InvalidArgument(f"{flag} must be a comma-separated list of {what}, got {text!r}")
    return values


def cmd_simulate(args) -> int:
    n_list = _parse_list(args.n_list, "--n-list", int, lambda v: v >= 1, "integers >= 1")
    m_list = _parse_list(args.m_list, "--m-list", int, lambda v: v >= 1, "integers >= 1")
    seeds = _parse_list(args.seeds, "--seeds", int, lambda v: True, "integers")
    try:
        SimParams(args.delta, 1, 1, beta=args.beta, gamma=args.gamma, theta=args.theta)
    except ValueError as exc:
        raise _InvalidArgument(str(exc)) from None
    ch, removed = _load_sanitized(args.channel)
    reports = sqrt_law_sweep(
        ch, args.delta, n_list, m_list, args.eps_target, seeds,
        beta=args.beta, gamma=args.gamma, theta=args.theta, workers=args.workers,
    )

    with open(args.csv_out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "M", "seed", "K_n", "epsilon_n", "covert_div",
                         "normalized_throughput", "a_hat", "meets_targets", "skipped"])
        for r in reports:
            values = (r.k_n, r.epsilon_n, r.covert_div, r.normalized_throughput, r.a_hat)
            writer.writerow([r.n, r.num_messages, r.seed, *(repr(float(v)) for v in values),
                             str(r.meets_targets).lower(), r.skipped or ""])

    rows = []
    for r in reports:
        row = {
            "n": r.n, "M": r.num_messages, "seed": r.seed,
            "K_n": r.k_n, "epsilon_n": r.epsilon_n,
            "covert_div": r.covert_div, "covert_div_avg": r.covert_div_avg,
            "normalized_throughput": r.normalized_throughput,
            "a_hat": r.a_hat, "converse_bound": r.converse_bound,
            "meets_targets": r.meets_targets, "skipped": r.skipped,
        }
        if r.chain is not None:
            chain = asdict(r.chain)
            chain.pop("slack")
            row["converse_chain"] = chain
        rows.append(row)

    _emit(_envelope({
        "params": {
            "delta": args.delta, "n_list": n_list, "M_list": m_list,
            "seeds": seeds, "eps_target": args.eps_target,
            "beta": args.beta, "gamma": args.gamma, "theta": args.theta,
        },
        "csv_path": args.csv_out,
        "removed_symbols": removed,
        "reports": rows,
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqcovert",
        description="Covert-throughput analysis for classical-quantum wiretap channels "
                    "(all quantities in nats unless --bits is given).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        # No prefix matching: a removed flag such as --s must not turn into --seeds.
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.add_argument("channel", help="channel JSON file, or - for standard input")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, help="check a channel file against the model invariants")
    add("classify", cmd_classify, help="sanitize and classify into its throughput regime")

    p = add("rate", cmd_rate, help="covert capacity in the positive-rate regime")
    p.add_argument("--bits", action="store_true", help="display values in bits")

    p = add("scaling-constant", cmd_scaling_constant,
            help="square-root-law scaling constant")
    p.add_argument("--oracle-resolution", type=float, default=None,
                   help="also run the brute-force simplex grid at this step size")
    p.add_argument("--bits", action="store_true", help="display values in bits")

    p = add("expansion-check", cmd_expansion_check,
            help="verify the quadratic covertness and linear rate expansions")
    p.add_argument("--alphas", default="1e-2,1e-3,1e-4",
                   help="comma-separated mixing weights (default 1e-2,1e-3,1e-4)")
    p.add_argument("--bits", action="store_true", help="display values in bits")

    p = add("simulate", cmd_simulate, help="finite-blocklength random-coding sweep")
    p.add_argument("--delta", type=float, required=True, help="covertness budget in nats")
    p.add_argument("--n-list", required=True, help="comma-separated blocklengths")
    p.add_argument("--m-list", required=True, help="comma-separated message counts")
    p.add_argument("--seeds", required=True, help="comma-separated RNG seeds")
    p.add_argument("--eps-target", type=float, default=0.1,
                   help="decoding-error target used for the pass flag (default 0.1)")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--csv-out", default="sweep.csv", help="CSV output path (default sweep.csv)")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        dim_cap()
    except ValueError as exc:
        # Checked first, because every report embeds the cap.
        _emit({"schema_version": SCHEMA_VERSION, "error": "resource-cap", "detail": str(exc)})
        return EXIT_RESOURCE_CAP
    try:
        return args.func(args)
    except _ValidationFailure as exc:
        _emit(_envelope(exc.diagnostics.to_dict()))
        return EXIT_VALIDATION
    except ChannelFormatError as exc:
        _emit(_envelope({"ok": False, "problems": [
            {"kind": "shape", "side": None, "index": None, "detail": str(exc)}
        ]}))
        return EXIT_VALIDATION
    except UnusableChannelError as exc:
        _emit(_envelope({"error": "unusable-channel", "detail": str(exc)}))
        return EXIT_UNUSABLE
    except WrongRegimeError as exc:
        _emit(_envelope({"error": "wrong-regime", "detail": str(exc)}))
        return EXIT_WRONG_REGIME
    except DimensionCapError as exc:
        _emit(_envelope({"error": "resource-cap", "detail": str(exc)}))
        return EXIT_RESOURCE_CAP
    except ArithmeticError as exc:
        _emit(_envelope({"error": "numerical-failure", "detail": str(exc)}))
        return EXIT_NUMERICAL
    except _InvalidArgument as exc:
        _emit(_envelope({"error": "invalid-argument", "detail": str(exc)}))
        return EXIT_INVALID_ARGUMENT


if __name__ == "__main__":
    sys.exit(main())
