import csv
import io
import json
import math

import numpy as np
import pytest

import cqcovert as cq
from cqcovert.channel_io import load_channel_data
from cqcovert.cli import main

from helpers import (
    channel_to_payload,
    leaking_receiver_example_channel,
    matrix_to_pairs,
    mixture_example_channel,
    off_support_example_channel,
    random_density,
    random_square_root_channel,
    save_channel,
    two_symbol_example_channel,
    uninformative_symbol_example_channel,
)


def write_channel(tmp_path, ch, name="channel.json"):
    path = tmp_path / name
    save_channel(str(path), ch)
    return str(path)


def write_raw(tmp_path, payload, name="raw.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _reject_constant(token):
    raise ValueError(f"report is not strict JSON: {token}")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


def test_validate_ok(tmp_path, capsys):
    path = write_channel(tmp_path, two_symbol_example_channel())
    code, payload = run(capsys, ["validate", path])
    assert code == 0
    assert payload["ok"]
    assert payload["schema_version"] == "1"
    assert payload["tolerances"]["support_tol"] == 1e-12


def test_validate_trace_violation(tmp_path, capsys):
    ch = two_symbol_example_channel()
    raw = {
        "schema_version": "1", "k": 2, "dims": {"dY": 2, "dZ": 2},
        "sigma": [matrix_to_pairs(s.mat) for s in ch.sigma],
        "rho": [matrix_to_pairs(ch.rho[0].mat),
                matrix_to_pairs(np.diag([0.7, 0.2]).astype(complex))],
    }
    code, payload = run(capsys, ["validate", write_raw(tmp_path, raw)])
    assert code == 2
    assert any(p["kind"] == "trace" for p in payload["problems"])


def test_validate_malformed_shape(tmp_path, capsys):
    raw = {"schema_version": "1", "k": 2, "dims": {"dY": 2, "dZ": 2},
           "sigma": [[[0.5, 0.0]], [[1.0, 0.0]]], "rho": [[[1.0]], [[1.0]]]}
    code, payload = run(capsys, ["validate", write_raw(tmp_path, raw)])
    assert code == 2
    assert any(p["kind"] == "shape" for p in payload["problems"])


def test_classify_three_examples(tmp_path, capsys):
    cases = [
        (mixture_example_channel(), "PositiveRate"),
        (two_symbol_example_channel(), "SquareRoot"),
        (off_support_example_channel(), "SuperSquareRoot"),
    ]
    for i, (ch, expected) in enumerate(cases):
        path = write_channel(tmp_path, ch, f"ch{i}.json")
        code, payload = run(capsys, ["classify", path])
        assert code == 0
        assert payload["regime"] == expected
        if expected == "PositiveRate":
            assert payload["mixture_witness"] == [0.0, 0.5, 0.5]
        else:
            assert payload["mixture_witness"] is None


def test_classify_deterministic_output(tmp_path, capsys):
    path = write_channel(tmp_path, mixture_example_channel())
    code1 = main(["classify", path])
    first = capsys.readouterr().out
    code2 = main(["classify", path])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_classify_unusable_channel(tmp_path, capsys):
    raw = {
        "schema_version": "1", "k": 2, "dims": {"dY": 2, "dZ": 2},
        "sigma": [matrix_to_pairs(np.diag([0.5, 0.5])), matrix_to_pairs(np.diag([0.8, 0.2]))],
        "rho": [matrix_to_pairs(np.diag([1.0, 0.0])), matrix_to_pairs(np.diag([0.0, 1.0]))],
    }
    code, payload = run(capsys, ["classify", write_raw(tmp_path, raw)])
    assert code == 3
    assert payload["error"] == "unusable-channel"


def test_rate_square_root_channel(tmp_path, capsys):
    path = write_channel(tmp_path, two_symbol_example_channel())
    code, payload = run(capsys, ["rate", path])
    assert code == 0
    assert payload["rate"] == 0.0
    assert payload["units"] == "nats"


def test_rate_positive_channel_with_bits(tmp_path, capsys):
    path = write_channel(tmp_path, mixture_example_channel())
    code, payload = run(capsys, ["rate", path])
    assert code == 0
    assert payload["rate"] == pytest.approx(math.log(2), abs=1e-9)
    assert payload["feasibility_residual"] <= 1e-8
    assert payload["converged"] is True

    code, payload = run(capsys, ["rate", path, "--bits"])
    assert payload["units"] == "bits"
    assert payload["rate"] == pytest.approx(1.0, abs=1e-9)


def test_rate_converges_past_singular_witness_mixture(tmp_path, capsys):
    # Frank-Wolfe with a line search stopped 1.1e-5 below ln 3 here after
    # 10,000 iterations and exited 6.
    path = write_channel(tmp_path, leaking_receiver_example_channel())
    code, payload = run(capsys, ["rate", path])
    assert code == 0
    assert payload["converged"] is True
    assert 0.0 <= payload["gap"] < payload["tolerances"]["frank_wolfe_gap_tol"]
    assert payload["rate"] == pytest.approx(math.log(3), abs=1e-9)


def test_rate_reports_non_convergence(tmp_path, capsys, monkeypatch):
    # a positive-rate channel whose classify witness is not optimal
    rng = np.random.default_rng(9)
    components = [random_density(rng, 2, floor=0.2) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    rho0 = cq.DensityOperator(sum(w * c.mat for w, c in zip(weights, components)))
    sigma = [random_density(rng, 2) for _ in range(4)]
    path = write_channel(tmp_path, cq.CQWiretapChannel(sigma, [rho0] + components))
    code, payload = run(capsys, ["rate", path])
    assert code == 0
    assert payload["converged"] is True and payload["iterations"] >= 2

    monkeypatch.setattr("cqcovert.scaling.FRANK_WOLFE_MAX_ITERS", 1)
    code, payload = run(capsys, ["rate", path])
    assert code == 6
    assert payload["converged"] is False
    assert payload["iterations"] == 1
    assert payload["gap"] >= payload["tolerances"]["frank_wolfe_gap_tol"]


def test_numerical_failure_is_a_json_error(tmp_path, capsys, monkeypatch):
    def failing_solver(ch):
        raise ArithmeticError("quadratic program failed: Positive directional derivative")

    monkeypatch.setattr("cqcovert.cli.scaling_constant", failing_solver)
    path = write_channel(tmp_path, two_symbol_example_channel())
    code, payload = run(capsys, ["scaling-constant", path])
    assert code == 7
    assert payload["error"] == "numerical-failure"
    assert "quadratic program failed" in payload["detail"]


def test_malformed_dim_cap_is_a_json_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CQCOVERT_DIM_CAP", "abc")
    path = write_channel(tmp_path, two_symbol_example_channel())
    code, payload = run(capsys, ["classify", path])
    assert code == 5
    assert payload["error"] == "resource-cap"
    assert "CQCOVERT_DIM_CAP" in payload["detail"]


def test_scaling_constant_command(tmp_path, capsys):
    path = write_channel(tmp_path, two_symbol_example_channel())
    code, payload = run(capsys, ["scaling-constant", path, "--oracle-resolution", "1e-2"])
    assert code == 0
    expected = (0.75 * math.log(1.5) + 0.25 * math.log(0.5)) / math.sqrt(0.125)
    assert payload["L"] == pytest.approx(expected, abs=1e-9)
    assert payload["oracle"]["abs_diff"] <= 1e-9


def test_scaling_constant_includes_uninformative_symbol(tmp_path, capsys):
    path = write_channel(tmp_path, uninformative_symbol_example_channel())
    code, payload = run(capsys, ["scaling-constant", path, "--oracle-resolution", "1e-3"])
    assert code == 0
    assert payload["oracle"]["abs_diff"] <= 1e-3 * payload["L"]


def test_scaling_constant_wrong_regime(tmp_path, capsys):
    path = write_channel(tmp_path, mixture_example_channel())
    code, payload = run(capsys, ["scaling-constant", path])
    assert code == 4
    assert payload["error"] == "wrong-regime"


def test_scaling_constant_oracle_cap(tmp_path, capsys):
    import cqcovert as cq
    from helpers import diag_state
    # same-sign eavesdropper deviations admit no mixture, so this k = 3
    # channel stays square-root while its oracle grid is two-dimensional
    ch = cq.CQWiretapChannel(
        [diag_state(0.5, 0.5), diag_state(0.75, 0.25), diag_state(0.3, 0.7)],
        [diag_state(0.5, 0.5), diag_state(0.75, 0.25), diag_state(0.6, 0.4)],
    )
    path = write_channel(tmp_path, ch)
    code, payload = run(capsys, ["scaling-constant", path, "--oracle-resolution", "1e-8"])
    assert code == 5
    assert payload["error"] == "resource-cap"


@pytest.mark.parametrize("resolution", ["2", "0", "-0.1", "nan"])
def test_oracle_resolution_out_of_range_is_invalid_argument(tmp_path, capsys, resolution):
    # The channel file is malformed, so exit 8 shows the check runs before loading it.
    path = write_raw(tmp_path, {"k": 2})
    code, payload = run(capsys, ["scaling-constant", path, "--oracle-resolution", resolution])
    assert code == 8
    assert payload["error"] == "invalid-argument"
    assert payload["detail"] == f"--oracle-resolution must lie in (0, 1], got {float(resolution)!r}"


def test_grid_oracle_alphabet_cap_is_resource_cap(tmp_path, capsys):
    ch = random_square_root_channel(np.random.default_rng(12), 6, 2, 3)
    path = write_channel(tmp_path, ch)
    code, payload = run(capsys, ["scaling-constant", path, "--oracle-resolution", "0.5"])
    assert code == 5
    assert payload["error"] == "resource-cap"
    assert "k <= 5" in payload["detail"]


def test_simulate_csv_in_missing_directory_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("cqcovert.cli.sqrt_law_sweep", no_sweep)
    path = write_channel(tmp_path, two_symbol_example_channel())
    csv_path = str(tmp_path / "missing" / "sweep.csv")
    code, payload = run(capsys, ["simulate", path, "--delta", "0.05", "--n-list", "2",
                                 "--m-list", "2", "--seeds", "0", "--csv-out", csv_path])
    assert code == 8
    assert payload["error"] == "invalid-argument"
    assert payload["detail"] == f"--csv-out must name a file in a writable directory, got {csv_path!r}"


def test_simulate_wrong_regime_writes_no_csv(tmp_path, capsys):
    path = write_channel(tmp_path, mixture_example_channel())
    csv_path = tmp_path / "sweep.csv"
    code, payload = run(capsys, ["simulate", path, "--delta", "0.05", "--n-list", "2",
                                 "--m-list", "2", "--seeds", "0", "--csv-out", str(csv_path)])
    assert code == 4
    assert payload["error"] == "wrong-regime"
    assert not csv_path.exists()


def _payload_with(**changes):
    payload = channel_to_payload(two_symbol_example_channel())
    payload.update(changes)
    return json.dumps(payload)


@pytest.mark.parametrize("text, code, detail", [
    ("{", 2, "not a JSON document"),
    ("[1, 2]", 2, "the channel must be a JSON object"),
    (_payload_with(dims=[2, 2]), 2, "dims must be an object, got [2, 2]"),
    (_payload_with(sigma=3), 2, "sigma must be a list of matrices"),
    (_payload_with(rho={"0": []}), 2, "rho must be a list of matrices"),
    (None, 8, "cannot read channel file"),
], ids=["malformed-json", "not-an-object", "dims-not-an-object", "sigma-not-a-list",
        "rho-not-a-list", "missing-file"])
@pytest.mark.parametrize("command", ["validate", "classify"])
def test_bad_channel_input_is_a_json_error(tmp_path, capsys, monkeypatch, command, text, code,
                                          detail):
    if text is None:
        path = str(tmp_path / "missing.json")
    else:
        path = "-"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    exit_code, payload = run(capsys, [command, path])
    assert exit_code == code
    if code == 2:
        [problem] = payload["problems"]
        assert problem["kind"] == "shape"
        assert problem["detail"].startswith(detail)
    else:
        assert payload["error"] == "invalid-argument"
        assert payload["detail"].startswith(f"{detail} {path!r}")


def test_expansion_check_command(tmp_path, capsys):
    path = write_channel(tmp_path, two_symbol_example_channel())
    code, payload = run(capsys, ["expansion-check", path])
    assert code == 0
    chi = payload["chi_squared_check"]
    assert chi["alphas"] == [1e-2, 1e-3, 1e-4]
    assert not chi["degenerate"]
    assert all(0.9 <= r <= 1.1 for r in chi["ratios"])
    hol = payload["holevo_check"]
    assert hol["limit"] == pytest.approx(0.13081203594113698, abs=1e-12)
    assert hol["slopes"][-1] == pytest.approx(hol["limit"], rel=0.01)


def test_expansion_check_degenerate(tmp_path, capsys):
    import cqcovert as cq
    ch = two_symbol_example_channel()
    same_rho = cq.CQWiretapChannel(ch.sigma, [ch.rho[0], ch.rho[0]])
    path = write_channel(tmp_path, same_rho)
    code, payload = run(capsys, ["expansion-check", path])
    assert code == 0
    assert payload["chi_squared_check"]["degenerate"]


def test_simulate_command(tmp_path, capsys):
    path = write_channel(tmp_path, two_symbol_example_channel())
    csv_path = str(tmp_path / "sweep.csv")
    argv = ["simulate", path, "--delta", "0.05", "--n-list", "2,3",
            "--m-list", "1,2", "--seeds", "0,1", "--csv-out", csv_path]
    code, payload = run(capsys, argv)
    assert code == 0
    assert len(payload["reports"]) == 8
    for row in payload["reports"]:
        if row["M"] == 1:
            assert row["K_n"] == 0.0 and row["epsilon_n"] == 0.0
        assert row["covert_div"] >= 0.0
        assert 0.0 <= row["epsilon_n"] <= 1.0
    first_csv = open(csv_path).read()
    assert first_csv.splitlines()[0] == \
        "n,M,seed,K_n,epsilon_n,covert_div,normalized_throughput,a_hat,meets_targets,skipped"

    main(argv)
    capsys.readouterr()
    assert open(csv_path).read() == first_csv
    assert "s" not in payload["params"]


def test_simulate_csv_fields_parse(tmp_path, capsys, monkeypatch):
    # a cap of 8 skips the n = 4 and n = 20000 cells, whose values are NaN
    monkeypatch.setenv("CQCOVERT_DIM_CAP", "8")
    rng = np.random.default_rng(48)
    ch = cq.CQWiretapChannel([random_density(rng, 2, floor=0.2) for _ in range(2)],
                             two_symbol_example_channel().rho)
    path = write_channel(tmp_path, ch)
    csv_path = tmp_path / "sweep.csv"
    code, payload = run(capsys, ["simulate", path, "--delta", "0.05", "--n-list", "2,4,20000",
                                 "--m-list", "1,3", "--seeds", "0", "--csv-out", str(csv_path)])
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(payload["reports"]) == 6
    for row, report in zip(rows, payload["reports"]):
        for key in ("n", "M", "seed", "K_n", "epsilon_n", "covert_div",
                    "normalized_throughput", "a_hat"):
            float(row[key])
        assert row["meets_targets"] == str(report["meets_targets"]).lower()
        assert row["skipped"] == (report["skipped"] or "")
        assert (row["skipped"] != "") == (report["n"] in (4, 20000))
        if report["skipped"] is None:
            assert float(row["covert_div"]) == report["covert_div"]
        else:
            # Not computed: NaN in the CSV, null in the strict-JSON report.
            assert math.isnan(float(row["covert_div"]))
            for key in ("K_n", "epsilon_n", "covert_div", "covert_div_avg",
                        "normalized_throughput", "converse_bound"):
                assert report[key] is None


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_validate_rejects_non_finite_entries(tmp_path, capsys, value):
    ch = two_symbol_example_channel()
    rho1 = [[[0.75, 0.0], [float(value), 0.0]], [[0.0, 0.0], [0.25, 0.0]]]
    raw = {
        "schema_version": "1", "k": 2, "dims": {"dY": 2, "dZ": 2},
        "sigma": [matrix_to_pairs(s.mat) for s in ch.sigma],
        "rho": [matrix_to_pairs(ch.rho[0].mat), rho1],
    }
    path = write_raw(tmp_path, raw)
    for command in ("validate", "classify"):
        code, payload = run(capsys, [command, path])
        assert code == 2
        assert payload["problems"] == [{"kind": "non-finite", "side": "rho", "index": 1,
                                        "detail": "1 of 4 entries are NaN or infinite"}]


@pytest.mark.parametrize("flags, detail", [
    (["simulate", "--n-list", "0", "--m-list", "2"], "--n-list must be a comma-separated list of integers >= 1, got '0'"),
    (["simulate", "--n-list", "2", "--m-list", "0"], "--m-list must be a comma-separated list of integers >= 1, got '0'"),
    (["simulate", "--n-list", "2,3.5", "--m-list", "2"], "--n-list must be a comma-separated list of integers >= 1, got '2,3.5'"),
    (["expansion-check", "--alphas", "0.5"], "--alphas must be a comma-separated list of numbers in (0, 0.1], got '0.5'"),
    (["simulate", "--n-list", "2", "--m-list", "2", "--delta", "nan"], "covertness budget must be a positive finite number, got nan"),
    (["simulate", "--n-list", "2", "--m-list", "2", "--delta", "inf"], "covertness budget must be a positive finite number, got inf"),
    (["simulate", "--n-list", "2", "--m-list", "2", "--workers", "0"], "--workers must be an integer >= 1, got 0"),
    (["simulate", "--n-list", "2", "--m-list", "2", "--workers", "-3"], "--workers must be an integer >= 1, got -3"),
    (["simulate", "--n-list", "2", "--m-list", "2", "--eps-target", "nan"], "decoding-error target must be a finite number in [0, 1], got nan"),
    (["simulate", "--n-list", "2", "--m-list", "2", "--eps-target", "inf"], "decoding-error target must be a finite number in [0, 1], got inf"),
    (["simulate", "--n-list", "2", "--m-list", "2", "--eps-target", "-1"], "decoding-error target must be a finite number in [0, 1], got -1.0"),
    (["simulate", "--n-list", "2", "--m-list", "2", "--eps-target", "2"], "decoding-error target must be a finite number in [0, 1], got 2.0"),
])
def test_invalid_arguments_are_json_errors(tmp_path, capsys, flags, detail):
    path = write_channel(tmp_path, two_symbol_example_channel())
    argv = [flags[0], path]
    if flags[0] == "simulate":
        # Before the case's own flags, so that a case's --delta overrides this one.
        argv += ["--delta", "0.05", "--seeds", "0", "--csv-out", str(tmp_path / "sweep.csv")]
    argv += flags[1:]
    code, payload = run(capsys, argv)
    assert code == 8
    assert payload["error"] == "invalid-argument"
    assert payload["detail"] == detail
    assert not (tmp_path / "sweep.csv").exists()


def test_simulate_rejects_removed_s_flag(tmp_path, capsys):
    path = write_channel(tmp_path, two_symbol_example_channel())
    argv = ["simulate", path, "--delta", "0.05", "--n-list", "2", "--m-list", "2",
            "--seeds", "0", "--csv-out", str(tmp_path / "sweep.csv"), "--s", "0.1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--s" in capsys.readouterr().err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    payload = json.dumps({
        "schema_version": "1", "k": 2, "dims": {"dY": 2, "dZ": 2},
        "sigma": [matrix_to_pairs(np.diag([0.5, 0.5])), matrix_to_pairs(np.diag([0.75, 0.25]))],
        "rho": [matrix_to_pairs(np.diag([0.5, 0.5])), matrix_to_pairs(np.diag([0.75, 0.25]))],
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out = run(capsys, ["classify", "-"])
    assert code == 0
    assert out["regime"] == "SquareRoot"


def test_load_channel_data_roundtrip(tmp_path):
    ch = mixture_example_channel()
    path = write_channel(tmp_path, ch)
    data = load_channel_data(path)
    assert data["k"] == 3
    for i in range(3):
        assert np.allclose(data["sigma"][i], ch.sigma[i].mat)
        assert np.allclose(data["rho"][i], ch.rho[i].mat)
