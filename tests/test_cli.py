"""Command-line surface: subcommands, exit codes, artifacts.

Everything runs in-process through main(argv) so exit codes and printed
output can be asserted without spawning interpreters.
"""

import csv
import json
import warnings

import numpy as np
import pytest

from imlab.cli import main
from imlab.lyapunov_perron import holder_certificate

TIGHT_GAP = {"spectral": {"eigenvalues": [2.0, 2.4, 18.0, 32.0], "m": 1}}
LIED_CONSTANTS = {"nonlinearity": {"amplitude": 0.02, "LF": 1e-4}}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_usage_errors_exit_via_argparse(capsys):
    # usage errors are configuration problems: one error: line and exit 1,
    # not argparse's exit 2, which means a certification failure here
    for argv in ([], ["no-such-command"], ["check-gap", "--seed", "1.5"],
                 ["check-gap", "--bogus"]):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    with pytest.raises(SystemExit) as info:
        main(["check-gap", "--help"])
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    rc = main(["check-gap", "--config", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_check_gap_default(capsys):
    rc = main(["check-gap"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["passed"] is True
    assert blob["theta_tilde"] == pytest.approx(1.0, abs=1e-12)
    assert blob["eta"] < 1.0


def test_check_gap_failing_spectrum(tmp_path, capsys):
    rc = main(["check-gap", "--config", write_cfg(tmp_path, TIGHT_GAP)])
    assert rc == 2
    # lambda2 <= 0 here, so eta is undefined and must not print as Infinity
    blob = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert blob["passed"] is False
    assert blob["margins"]["spectral_gap"] < 0
    assert blob["eta"] is None


def test_check_gap_seed_sensitivity(tmp_path, capsys):
    main(["check-gap", "--seed", "0"])
    first = capsys.readouterr().out
    main(["check-gap", "--seed", "0"])
    again = capsys.readouterr().out
    main(["check-gap", "--seed", "1"])
    other = capsys.readouterr().out
    assert first == again
    assert first != other  # sampled Hoelder constant moves with the seed


def test_build_default(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["build", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "L_hat" in captured.out
    assert captured.err.startswith("runtime: ")
    payload = json.loads((out / "certificates.json").read_text())
    assert "runtime_seconds" not in payload
    assert payload["gap_report"]["passed"] is True
    assert payload["lipschitz_hat"] < 1.0
    assert payload["graph_iterations"] >= 2
    assert (out / "manifold.csv").exists()
    assert (out / "derivative.csv").exists()


def test_build_certifies_the_solved_limit_field(tmp_path, capsys, lab, limit):
    out = tmp_path / "out"
    assert main(["build", "--out", str(out)]) == 0
    payload = json.loads((out / "certificates.json").read_text())
    want = holder_certificate(limit.field, lab.theta)
    assert payload["holder_hat"] == want
    assert f"M_hat = {want:.12g}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["build", "distance-study", "self-test"])
def test_out_beneath_a_file_fails_before_solving(tmp_path, capsys, command):
    # no chmod: the tests may run as root, who may write anywhere
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main([command, "--out", str(blocker / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot create output directory")
    assert "eps=" not in captured.out and captured.out == ""


def test_build_unwritable_report_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "certificates.json").mkdir(parents=True)
    rc = main(["build", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output")


def test_self_test_unwritable_report_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "suites.json").mkdir(parents=True)
    rc = main(["self-test", "--suites", "PsiUniform", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output")


def test_oserror_outside_the_report_writes_propagates(tmp_path, monkeypatch):
    # only the report writes map OSError to an error line; one from elsewhere
    # (a broken stdout pipe, say) is not a refused output directory
    def broken(*args, **kwargs):
        raise BrokenPipeError("stdout closed")

    monkeypatch.setattr("imlab.cli.perturbation_harness.solve_member", broken)
    with pytest.raises(BrokenPipeError):
        main(["build", "--out", str(tmp_path / "out")])


def test_build_zero_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"nonlinearity": {"amplitude": 0.0}})
    out = tmp_path / "out"
    rc = main(["build", "--config", cfg, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads((out / "certificates.json").read_text())
    assert payload["graph_iterations"] == 1
    with open(out / "manifold.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    fast = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    assert np.all(fast == 0.0)


def test_build_rejects_bad_exponents(tmp_path, capsys):
    # a nonpositive exponent is a configuration error wherever it comes
    # from; a positive one outside the window fails the admissibility check
    assert main(["build", "--theta", "1.5", "--out", str(tmp_path)]) == 2
    assert main(["build", "--theta", "-0.1", "--out", str(tmp_path)]) == 1
    cfg = write_cfg(tmp_path, {"theta": -0.1})
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag, key", [("--theta", "theta"), ("--theta-star", "theta_star")])
@pytest.mark.parametrize("value", [-0.1, 0])
def test_nonpositive_exponents_fail_alike_from_flag_and_file(tmp_path, capsys, flag, key, value):
    # ExperimentConfig checks the sign, so a flag override and a config-file
    # value end in the same exit code and the same error: line
    assert main(["check-gap", flag, str(value)]) == 1
    from_flag = capsys.readouterr().err.strip().splitlines()
    assert main(["check-gap", "--config", write_cfg(tmp_path, {key: value})]) == 1
    from_file = capsys.readouterr().err.strip().splitlines()
    assert len(from_flag) == 1 and from_flag[0].startswith("error:")
    assert from_flag == from_file


@pytest.mark.parametrize("flag", ["--theta", "--theta-star"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_exponent_flags_are_usage_errors(capsys, flag, value):
    # a non-finite override is malformed input, not a failed window check
    assert main(["check-gap", flag, value]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "must be a finite number" in err[0]


@pytest.mark.parametrize(
    "payload, phrase",
    [
        ({"solver": {"h": "fast"}}, "h must be"),
        ({"spectral": {"N": "x"}}, "N must be an integer"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"spectral": {"N": 3, "m": 2}}, "exceed N=3"),
        # numpy refuses this allocation up front, so the test commits no memory
        ({"spectral": {"N": 10_000_000_000_000}}, "more memory"),
    ],
)
def test_build_rejects_malformed_config(tmp_path, capsys, payload, phrase):
    cfg = write_cfg(tmp_path, payload)
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and phrase in err[0]


def test_build_failing_gap(tmp_path, capsys):
    rc = main(["build", "--config", write_cfg(tmp_path, TIGHT_GAP),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "gap conditions fail" in capsys.readouterr().err


def test_build_overflow(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"solver": {"T_horizon": 500.0}})
    rc = main(["build", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    capsys.readouterr()


def test_self_test_suite_name_validation(tmp_path, capsys):
    assert main(["self-test", "--suites", ",", "--out", str(tmp_path)]) == 1
    assert main(["self-test", "--suites", "nosuch", "--out", str(tmp_path)]) == 1
    assert "unknown suites" in capsys.readouterr().err


def test_self_test_rejects_lied_constants(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LIED_CONSTANTS)
    rc = main(["self-test", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "exceeds configured" in capsys.readouterr().err


def test_self_test_single_suite(tmp_path, capsys):
    rc = main(["self-test", "--suites", "distp", "--out", str(tmp_path)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "constants certified" in text
    assert "distp" in text and "ok" in text and "FAIL" not in text


def test_self_test_rejects_repeated_suites(tmp_path, capsys):
    # a repeat would draw from the shared stream again, print once, and
    # shift every later suite
    argv = ["self-test", "--suites", "distp,distp,distThetaEpsilon", "--out", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "repeated suites: ['distp']" in err[0]
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_self_test_writes_suites_json_only_with_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["self-test", "--suites", "PsiUniform,distp"]
    assert main(argv) == 0
    lines = capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # without --out, no files
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert capsys.readouterr().out == lines  # the printed lines do not change
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert list(a.iterdir()) == [a / "suites.json"]
    text = (a / "suites.json").read_text()
    assert text == (b / "suites.json").read_text()
    blob = json.loads(text, parse_constant=_reject_constant)
    assert list(blob) == ["PsiUniform", "distp"]  # sorted keys
    for name, res in blob.items():
        assert set(res) == {"name", "samples", "violations", "worst_ratio", "details"}
        assert res["name"] == name and res["violations"] == 0
        # full precision: the printed line rounds the same ratio to 6 digits
        assert f"{name:<14} samples={res['samples']:<6} violations=0   " \
            f"worst={res['worst_ratio']:.6g}  ok" in lines
    assert set(blob["PsiUniform"]["details"]) == {
        "theta", "M", "input_certificate", "output_certificate", "output_norm_sup"}
    with pytest.raises(SystemExit):
        main(["self-test", "--help"])
    assert "suites.json" in capsys.readouterr().out


def test_self_test_jdistance_at_eps_max_zero(tmp_path, capsys):
    # eps_max = 0 compares the limit with itself: its envelope is zero at
    # every time, so no ratio is taken and a sample fails only past the
    # fixed-point floor; the report stays strict JSON
    cfg = write_cfg(tmp_path, {"family": {"eps_grid": [0]}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["self-test", "--config", cfg, "--suites", "Jdistance", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    line = captured.out.splitlines()[-1]
    assert line.startswith("Jdistance ") and line.endswith("violations=0   worst=0  ok")
    blob = json.loads((out / "suites.json").read_text(), parse_constant=_reject_constant)
    res = blob["Jdistance"]
    assert res["violations"] == 0 and res["worst_ratio"] == 0.0 and res["samples"] > 0
    assert res["details"]["eps"] == 0.0 and res["details"]["fitted_C"] == 0.0


def test_eps_grid_flag_validation(tmp_path, capsys):
    assert main(["distance-study", "--eps-grid", "abc", "--out", str(tmp_path)]) == 1
    assert main(["distance-study", "--eps-grid", ",", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("grid, phrase", [
    ("5", "must not exceed 1"),
    ("nan", "must be finite"),
    ("0.1,inf", "must be finite"),
])
def test_eps_grid_flag_held_to_config_rules(tmp_path, capsys, grid, phrase):
    assert main(["distance-study", "--eps-grid", grid, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and phrase in err[0]


def test_distance_study_short_grid(tmp_path, capsys):
    out = tmp_path / "study"
    rc = main(["distance-study", "--eps-grid", "0.01,0.003", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fitted_C_sup" in text and "FAIL" not in text
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["eps"]) for r in rows] == [0.01, 0.003]
    assert all(r["pass_sup"] == "1" and r["pass_c1theta"] == "1" for r in rows)
    blob = json.loads((out / "report.json").read_text())
    assert blob["all_pass"] is True and blob["interpolation_ok"] is True
    assert (out / "plot_report.py").exists()


def test_distance_study_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["distance-study", "--eps-grid", "0.01", "--out", str(a)]) == 0
    assert main(["distance-study", "--eps-grid", "0.01", "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_distance_study_report_is_strict_json(tmp_path, capsys):
    # one eps row leaves every least-squares fit undefined
    out = tmp_path / "zero"
    assert main(["distance-study", "--eps-grid", "0.0", "--out", str(out)]) == 0
    capsys.readouterr()
    blob = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert all(fit == {"C": None, "slope": None}
               for fit in blob["least_squares_fits"].values())
