import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spacetimeq
from spacetimeq import cli, timecrystal


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCatalog:
    def test_bare_invocation_lists_groups(self, capsys):
        code, out, _ = run(capsys)
        assert code == 0
        for group in ("pdm.", "gaussian.", "process.", "histories.", "otoc.", "tc.", "cj.", "cv-wigner."):
            assert group in out

    def test_json_catalog(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "--list")
        assert code == 0
        catalog = json.loads(out)
        assert "pdm.eigen" in catalog["experiments"]

    def test_unknown_group_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nonsense"])
        assert exc.value.code == 2


class TestPayloads:
    def test_pdm_eigen(self, capsys):
        code, out, _ = run(capsys, "pdm", "eigen", "--state", "zero", "--steps", "identity")
        assert code == 0
        payload = json.loads(out)
        assert np.allclose(payload["eigenvalues"], [-0.5, 0.0, 0.5, 1.0], atol=1e-12)

    def test_gyni_scores(self, capsys):
        code, out, _ = run(capsys, "game", "gyni", "--demo", "paper")
        assert code == 0
        payload = json.loads(out)
        target = 5.0 / 16.0 * (1.0 + 1.0 / np.sqrt(2.0))
        assert abs(payload["gyni"] - target) < 1e-10
        assert abs(payload["lgyni"] - target - 0.25) < 1e-10
        assert payload["violates_gyni"] and payload["violates_lgyni"]

    @pytest.mark.parametrize("demo,expected", [("paper", 0), ("anything", 2)])
    def test_gyni_demo_accepts_only_the_paper(self, demo, expected):
        assert call("process", "gyni", "--demo", demo)[0] == expected

    def test_pdm_build_out_parses_back_to_the_built_matrix(self, tmp_path):
        target = tmp_path / "pdm.json"
        argv = ("pdm", "build", "--state", "plus", "--steps", "haar,depolarizing:0.2,haar", "--seed", "7")
        assert call(*argv, "--out", str(target))[0] == 0
        text = target.read_text()
        assert "\n" not in text  # one compact line
        payload = json.loads(text)
        process = cli._temporal_process(argparse.Namespace(**payload["params"]))
        np.testing.assert_array_equal(
            np.array(payload["matrix_real"]) + 1j * np.array(payload["matrix_imag"]),
            cli.pdm.build_pdm(process).matrix)

    def test_tc_decay_csv(self, capsys):
        code, out, _ = run(
            capsys, "tc", "decay", "--channel", "depolarizing", "--p", "0.1",
            "--n", "20", "--obs", "X", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert "corr" in header and "N" in header and "p" in header
        corr_col = header.index("corr")
        n_col = header.index("N")
        for line in lines[1:]:
            fields = line.split(",")
            n = int(fields[n_col])
            assert abs(float(fields[corr_col]) - 0.9 ** (n - 1)) < 1e-10

    def test_small_numbers_use_scientific_csv(self, capsys):
        code, out, _ = run(
            capsys, "tc", "decay", "--channel", "depolarizing", "--p", "0.9",
            "--n", "12", "--obs", "X", "--format", "csv",
        )
        assert code == 0
        assert "e-" in out

    @pytest.mark.parametrize("r", ["0", "2", "3", "50"])
    def test_gaussian_pt_checks_the_exact_gap(self, capsys, r):
        code, out, _ = run(capsys, "gaussian", "pt", "--r", r)
        assert code == 0
        payload = json.loads(out)
        r = float(r)
        assert payload["exact_relative_entry_error"] == np.exp(-2 * r) / np.cosh(2 * r)
        assert payload["gap_residual"] <= 1e-15
        assert payload["pt_matches_tmss"] == (payload["max_relative_entry_error"] <= 2e-5)

    def test_gaussian_pt_exits_3_when_the_gap_is_off(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.gaussian, "partial_transpose_gaussian", lambda cov, mode: cov)  # no flip
        code, out, err = run(capsys, "gaussian", "pt", "--r", "1")
        assert code == 3
        assert json.loads(out)["gap_residual"] > 1.0
        assert "invariant violation" in err

    def test_correlate_has_parameters(self, capsys):
        code, out, _ = run(capsys, "process", "correlate", "--u", "haar", "--seed", "5",
                           "--i", "X", "--j", "Y")
        payload = json.loads(out)
        assert code == 0
        assert payload["params"]["seed"] == 5
        assert abs(payload["correlation"] - payload["closed_form"]) < 1e-10

    def test_correlate_unmeasured_events(self, capsys):
        # I at both events is the unmeasured event twice: the identity correlation, 1
        code, out, _ = run(capsys, "process", "correlate", "--u", "identity", "--i", "I", "--j", "I")
        payload = json.loads(out)
        assert code == 0
        assert payload["correlation"] == pytest.approx(1.0, abs=1e-12)
        assert payload["closed_form"] == 1.0


class TestHistoriesConsistent:
    @pytest.mark.parametrize("argv,weak,strong", [
        (("--state", "plus", "--paulis", "Z,Z"), True, True),
        (("--state", "plus", "--unitary", "hadamard", "--paulis", "Z,Z"), False, False),
        (("--state", "mixed", "--unitary", "hadamard", "--paulis", "Z,X,Z"), True, True),
        (("--state", "zero", "--paulis", "X,Y"), True, False),
        (("--unitary", "haar", "--seed", "4", "--paulis", "X,Z,Y"), False, False),
    ])
    def test_both_flags_from_one_array(self, capsys, monkeypatch, argv, weak, strong):
        is_consistent, decoherence_array = cli.histories.is_consistent, cli.histories.decoherence_array
        families = []
        monkeypatch.setattr(cli.histories, "decoherence_array",
                            lambda f: families.append(f) or decoherence_array(f))
        fail_if_started(monkeypatch, (cli.histories, "is_consistent"),
                        (cli.histories, "decoherence_functional"))
        code, out, _ = run(capsys, "histories", "consistent", *argv)
        assert code == 0 and len(families) == 1
        payload = json.loads(out)
        assert (payload["weak_consistent"], payload["strong_consistent"]) == (weak, strong)
        assert weak is is_consistent(families[0], tol=1e-8)
        assert strong is is_consistent(families[0], tol=1e-8, strong=True)


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = ("tc", "floquet", "--length", "4", "--periods", "20", "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_seed_changes_output(self, capsys):
        _, a, _ = run(capsys, "otoc", "direct", "--d", "4", "--seed", "1")
        _, b, _ = run(capsys, "otoc", "direct", "--d", "4", "--seed", "2")
        assert a != b


class TestExitCodes:
    def test_missing_seed_is_validation_error(self, capsys):
        code, _, err = run(capsys, "otoc", "direct", "--d", "4")
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("experiment", [("histories", "corr"), ("histories", "df"), ("pdm", "correlation")])
    @pytest.mark.parametrize("spec,token", [("Z,,Z", "''"), ("Q", "'Q'"), ("Z,X,W", "'W'")])
    def test_unknown_pauli_letter_is_named(self, capsys, experiment, spec, token):
        code, _, err = run(capsys, *experiment, "--paulis", spec)
        assert code == 2
        assert token in err and "I, X, Y, Z" in err

    @pytest.mark.parametrize("flag", ["--i", "--j"])
    def test_unknown_correlate_observable(self, flag):
        code, err = exit_code("process", "correlate", flag, "Q")
        assert code == 2
        assert "'Q'" in err and "invalid choice" in err
        assert exit_code("process", "correlate", flag, "x")[0] == 0

    def test_bad_parameter_value(self, capsys):
        code, _, err = run(capsys, "tc", "decay", "--channel", "depolarizing", "--p", "1.5")
        assert code == 2

    def test_invariant_violation_exit(self, capsys):
        code, _, err = run(capsys, "cv-wigner", "normcheck", "--radius", "1.0",
                           "--points", "16", "--nmax", "24", "--tol", "1e-6")
        assert code == 3
        assert "invariant" in err

    def test_io_failure(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "pdm", "eigen", "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")
        )
        assert code == 4

    def test_out_file_written(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "pdm", "eigen", "--out", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["experiment"] == "pdm.eigen"


class TestConfig:
    def test_config_supplies_experiment_and_params(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "pdm.eigen",
            "params": {"state": "zero", "steps": "identity"},
        }))
        code, out, _ = run(capsys, "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "pdm.eigen"
        assert np.allclose(payload["eigenvalues"], [-0.5, 0.0, 0.5, 1.0], atol=1e-12)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "pdm.eigen",
            "params": {"state": "zero"},
        }))
        code, out, _ = run(capsys, "--config", str(cfg), "--state", "mixed")
        payload = json.loads(out)
        assert payload["params"]["state"] == "mixed"

    def test_missing_config_is_io_error(self, capsys):
        code, _, _ = run(capsys, "--config", "/does/not/exist.json")
        assert code == 4


def call(*argv):
    """Exit code, stdout and stderr of one in-process call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def exit_code(*argv):
    """Exit code and stderr of one in-process call, argparse exits included."""
    code, _, err = call(*argv)
    return code, err


def strict_json(text: str):
    """Parse a payload as strict JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestContract:
    @pytest.mark.parametrize("argv", [
        ("cv-wigner", "normcheck", "--points", "0"),
        ("cv-wigner", "point", "--nmax", "1"),
        ("--config",),
        ("tc", "decay", "--channel", "depolarizing", "--p", "0.1", "--n", "-3"),
        ("tc", "symm", "--p", "0.1", "--n", "0"),
        ("tc", "phaseflip", "--n", "0"),
        ("tc", "floquet", "--length", "4", "--periods", "-1", "--seed", "1"),
        ("process", "vertices", "--ma", "120", "--mb", "120"),
        ("cv-wigner", "normcheck", "--radius", "nan", "--points", "4", "--nmax", "6"),
        ("cv-wigner", "normcheck", "--radius", "inf", "--points", "4", "--nmax", "6"),
        ("cv-wigner", "point", "--alpha", "0.5,nan", "--nmax", "6"),
        ("otoc", "harmonic", "--tau", "nan"),
        ("gaussian", "pt", "--r", "1e6"),
        ("gaussian", "state", "--kind", "thermal:nan"),
        ("gaussian", "state", "--kind", "tmss:1e6"),
        ("gaussian", "pt", "--r", "-1"),
        ("gaussian", "temporal", "--step", "squeeze:400"),
        ("otoc", "harmonic", "--m", "1e-310"),
        ("otoc", "harmonic", "--tau", "1e-200"),
        ("gaussian", "temporal", "--step", "squeeze:1e6"),
        ("tc", "floquet", "--length", "4", "--site", "-1", "--periods", "2", "--seed", "1"),
        ("tc", "floquet", "--length", "1", "--seed", "1"),
    ])
    def test_out_of_domain_is_validation_error(self, argv):
        code, err = exit_code(*argv)
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_refused_without_payload(self, fmt):
        code, out, err = call("gaussian", "temporal", "--step", "squeeze:400", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == ["invalid parameters: the result holds a NaN or an infinity"]

    def test_non_finite_invariant_payload_is_refused(self, monkeypatch):
        monkeypatch.setattr(cli.gaussian, "partial_transpose_gaussian", lambda cov, mode: cov * np.inf)
        code, out, err = call("gaussian", "pt", "--r", "1")
        assert (code, out) == (2, "")
        assert "NaN or an infinity" in err

    def test_config_with_equals_sign(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "pdm.eigen", "params": {"state": "mixed"}}))
        code, out, _ = run(capsys, f"--config={cfg}")
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "pdm.eigen"
        assert payload["params"]["state"] == "mixed"

    @pytest.mark.parametrize("document", [
        {"experiment": "pdm.nosuch"},
        {"experiment": "pdm.eigen", "params": {"nosuch": 1}},
        {"experiment": "pdm.eigen", "params": {"seed": "abc"}},
        {"experiment": "tc.decay", "params": {"n": None}},
        {"experiment": "process.vertices", "params": {"enumerate": "yes"}},
        [1, 2],
    ])
    def test_bad_config_documents_are_validation_errors(self, tmp_path, document):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        assert exit_code("--config", str(cfg))[0] == 2


class TestParams:
    @pytest.mark.parametrize("argv", [
        ("cj", "of-channel", "--channel", "haar", "--seed", "5"),
        ("cj", "check", "--channel", "haar", "--seed", "5"),
        ("cj", "roundtrip", "--channel", "haar", "--seed", "5"),
        ("tc", "decay", "--channel", "haar", "--seed", "3", "--n", "4"),
        ("tc", "floquet", "--length", "3", "--site", "1", "--periods", "4", "--seed", "2",
         "--no-interactions"),
        ("histories", "consistent", "--unitary", "haar", "--seed", "4", "--paulis", "X,Z"),
        ("process", "vertices", "--enumerate"),
        ("otoc", "finalstate", "--n", "3", "--seed", "9"),
    ])
    def test_payload_reruns_from_its_params(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["params"]) == {p.name for p in cli.EXPERIMENTS[payload["experiment"]].params}
        cfg = tmp_path / "rerun.json"
        cfg.write_text(json.dumps({"experiment": payload["experiment"], "params": payload["params"]}))
        code, again, _ = run(capsys, "--config", str(cfg))
        assert code == 0
        assert again == out

    def test_game_is_an_alias_of_process(self, capsys):
        assert run(capsys, "game", "validate")[1] == run(capsys, "process", "validate")[1]


class TestVertexBound:
    def test_refused_without_enumerating(self, monkeypatch):
        def never(*sizes):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli.process_matrix, "enumerate_causal_vertices", never)
        code, err = exit_code("process", "vertices", "--enumerate",
                              "--ma", "4", "--mb", "4", "--ka", "4", "--kb", "4")
        assert code == 2
        assert "refuses" in err

    def test_count_alone_is_not_bounded(self, capsys):
        code, out, _ = run(capsys, "process", "vertices", "--ma", "4", "--mb", "4", "--ka", "4", "--kb", "4")
        assert code == 0
        assert json.loads(out)["count_formula"] == 2199023190016

    def test_default_sizes_enumerate(self, capsys):
        code, out, _ = run(capsys, "process", "vertices", "--enumerate")
        payload = json.loads(out)
        assert code == 0
        assert payload["count_enumerated"] == payload["count_formula"] == 112


class TestWignerBound:
    @pytest.mark.parametrize("argv", [
        ("cv-wigner", "normcheck", "--points", "100000"),
        ("cv-wigner", "normcheck", "--points", "680", "--nmax", "128", "--channel", "phase-damping"),
        ("cv-wigner", "normcheck", "--points", "2309", "--nmax", "2"),
        ("cv-wigner", "normcheck", "--points", "1", "--nmax", "129"),
        ("cv-wigner", "point", "--nmax", "100000", "--channel", "phase-damping"),
    ])
    def test_refused_before_any_array(self, monkeypatch, argv):
        def never(*args):
            raise AssertionError("cv-wigner work started")

        for module, name in ((cli.cv_wigner, "wigner_normalization_check"),
                             (cli.cv_wigner, "spacetime_wigner_point"),
                             (cli.cv_wigner, "fock_phase_damping"), (cli.channels, "identity_channel")):
            monkeypatch.setattr(module, name, never)
        code, err = exit_code(*argv)
        assert code == 2
        assert "exceeds" in err

    def test_largest_cutoff_normcheck_runs(self, capsys):
        code, out, _ = run(capsys, "cv-wigner", "normcheck", "--points", "64",
                           "--nmax", str(cli.MAX_FOCK_LEVELS), "--channel", "phase-damping")
        assert code == 0
        assert json.loads(out)["within_tolerance"]

    def test_largest_cutoff_runs(self, capsys):
        code, out, _ = run(capsys, "cv-wigner", "point", "--nmax", str(cli.MAX_FOCK_LEVELS),
                           "--channel", "phase-damping")
        assert code == 0
        assert abs(json.loads(out)["wigner"] - 4.0) < 1e-9


def fail_if_started(monkeypatch, *targets):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in targets:
        monkeypatch.setattr(module, name, never)


class TestWorkBounds:
    @pytest.mark.parametrize("command", ["build", "eigen", "monotone", "correlation", "tetra"])
    def test_long_pdm_chains_refused_before_any_process(self, monkeypatch, command):
        fail_if_started(monkeypatch, (cli.pdm, "build_pdm"), (cli.pdm, "event_correlation"),
                        (cli.pdm, "TemporalProcess"), (cli.channels, "unitary_channel"))
        steps = ",".join(["identity"] * cli.MAX_PDM_EVENTS)  # one event more than the bound
        code, err = exit_code("pdm", command, "--steps", steps)
        assert code == 2
        assert "exceeds" in err

    def test_longest_pdm_chain_runs(self, capsys):
        steps = ",".join(["identity"] * (cli.MAX_PDM_EVENTS - 1))
        code, out, _ = run(capsys, "pdm", "eigen", "--state", "zero", "--steps", steps)
        assert code == 0
        eigenvalues = json.loads(out)["eigenvalues"]
        assert len(eigenvalues) == 2**cli.MAX_PDM_EVENTS
        assert abs(sum(eigenvalues) - 1.0) < 1e-9

    @pytest.mark.parametrize("argv", [
        *[("histories", command, "--paulis", ",".join("Z" * (cli.MAX_HISTORY_TIMES[command] + 1)))
          for command in ("df", "consistent", "corr")],
        ("otoc", "direct", "--d", str(cli.MAX_OTOC_DIM + 1), "--seed", "1"),
        ("otoc", "pdm", "--d", "2048", "--seed", "1"),
        ("otoc", "finalstate", "--n", str(cli.MAX_FINAL_STATE_DIM + 1), "--seed", "1"),
        ("tc", "decay", "--channel", "depolarizing", "--p", "0.1", "--n", "100000"),
        ("tc", "symm", "--p", "0.1", "--n", "1000000"),
        ("tc", "symm", "--lam", "0.1", "--n", str(cli.MAX_SERIES_LENGTH + 1)),
        ("tc", "phaseflip", "--n", str(cli.MAX_SERIES_LENGTH + 1)),
    ])
    def test_refused_before_any_work(self, monkeypatch, argv):
        fail_if_started(
            monkeypatch, (cli.histories, "pauli_history_family"),
            (cli.histories, "matching_process_correlation"), (cli.linalg, "haar_random_unitary"),
            (cli.otoc, "otoc_direct"), (cli.otoc, "otoc_via_pdm"),
            (cli.otoc, "final_state_conditional_output"), (cli.timecrystal, "channel_decay_series"),
            (cli.timecrystal, "symmetrization_series"), (cli.timecrystal, "dephasing_symmetrization_series"),
            (cli.timecrystal, "phase_flip_code_series"))
        code, err = exit_code(*argv)
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize("argv", [
        ("histories", "corr", "--paulis", ",".join("Z" * cli.MAX_HISTORY_TIMES["corr"])),
        ("otoc", "finalstate", "--n", str(cli.MAX_FINAL_STATE_DIM), "--seed", "1"),
        ("tc", "decay", "--channel", "depolarizing", "--p", "0.1", "--n", str(cli.MAX_SERIES_LENGTH)),
        ("tc", "symm", "--p", "0.1", "--n", str(cli.MAX_SERIES_LENGTH)),
        ("tc", "phaseflip", "--n", str(cli.MAX_SERIES_LENGTH)),
    ])
    def test_bounds_are_inclusive(self, argv):
        assert exit_code(*argv)[0] == 0

    @pytest.mark.parametrize("command", ["df", "consistent", "corr"])
    def test_history_bound_per_command(self, command):
        bound = cli.MAX_HISTORY_TIMES[command]
        argv = ("histories", command, "--unitary", "haar", "--seed", "5", "--paulis")
        assert exit_code(*argv, ",".join("XYZ"[k % 3] for k in range(bound)))[0] == 0
        code, err = exit_code(*argv, ",".join("XYZ"[k % 3] for k in range(bound + 1)))
        assert code == 2
        assert f"exceeds {bound}" in err


class TestFloquetBound:
    @pytest.mark.parametrize("argv", [
        ("--length", str(cli.timecrystal.MAX_CHAIN_LENGTH + 1), "--periods", "0"),
        ("--length", "1000000000", "--periods", "0"),
        ("--length", "2", "--periods", str(cli.MAX_SERIES_LENGTH)),
    ])
    @pytest.mark.parametrize("command", ["floquet", "spectrum"])
    def test_refused_before_any_work(self, monkeypatch, command, argv):
        fail_if_started(monkeypatch, (cli.timecrystal, "FloquetChainSpec"),
                        (cli.timecrystal, "floquet_unitary"), (cli.timecrystal, "floquet_correlation_series"),
                        (cli.timecrystal, "basis_product_state"))
        code, err = exit_code("tc", command, *argv, "--seed", "1")
        assert code == 2
        assert "exceeds" in err

    def test_short_spectrum_refused_before_any_work(self, monkeypatch):
        fail_if_started(monkeypatch, (cli.timecrystal, "FloquetChainSpec"),
                        (cli.timecrystal, "floquet_unitary"), (cli.timecrystal, "floquet_correlation_series"),
                        (cli.timecrystal, "basis_product_state"))
        code, err = exit_code("tc", "spectrum", "--length", "4", "--periods", "14", "--seed", "1")
        assert code == 2
        assert "--periods must be >= 15" in err

    def test_shortest_spectrum_runs(self, capsys):
        code, out, _ = run(capsys, "tc", "spectrum", "--length", "4", "--periods", "15", "--seed", "1")
        assert code == 0
        assert json.loads(out)["params"]["periods"] == 15

    def test_bound_is_inclusive(self, capsys):
        for length, periods in ((8, 256), (11, 0), (cli.timecrystal.MAX_CHAIN_LENGTH, 2)):
            code, out, _ = run(capsys, "tc", "floquet", "--length", str(length), "--periods", str(periods),
                               "--seed", "1")
            assert code == 0
            series = json.loads(out)["series"]
            assert len(series) == periods + 1 and series[0] == 1.0


def test_cli_process_loads_no_scipy():
    script = ("import contextlib, io, sys\n"
              "import spacetimeq.cli as cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [cli.main(['pdm', 'eigen']),\n"
              "             cli.main(['tc', 'spectrum', '--length', '6', '--seed', '1'])]\n"
              "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0] []"


def test_chain_bound_is_the_library_bound():
    assert cli.MAX_CHAIN_LENGTH == timecrystal.MAX_CHAIN_LENGTH


def python_in_subprocess(script: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c script args`` in a fresh interpreter, the package's source directory on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
                          timeout=120)


# Runs ``python -m spacetimeq.cli ARGS`` (``import spacetimeq`` when there are none) and prints, last,
# the exit code and the package's submodules whose code ran, seen through the "exec" audit event.
EXECUTED_SUBMODULES = """
import os, runpy, sys
ran = set()
def record(event, args):
    path = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if os.path.basename(os.path.dirname(path)) == "spacetimeq":
        ran.add(os.path.basename(path).removesuffix(".py"))
sys.addaudithook(record)
code = 0
if len(sys.argv) > 1:
    try:
        runpy.run_module("spacetimeq.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import spacetimeq
print(code, sorted(ran - {"__init__", "cli"}))
"""


class TestLazySubmodules:
    @pytest.mark.parametrize("argv, code, executed", [
        ((), 0, []),
        (("nosuchgroup",), 2, []),
        (("tc", "floquet", "--length", "13", "--seed", "1"), 2, []),
        (("gaussian", "pt"), 0, ["gaussian", "linalg"]),
        (("pdm", "eigen"), 0, ["channels", "linalg", "pdm"]),
    ], ids=["import", "unknown-group", "refused-length", "gaussian-pt", "pdm-eigen"])
    def test_a_call_executes_only_its_experiments_modules(self, argv, code, executed):
        done = python_in_subprocess(EXECUTED_SUBMODULES, *argv)
        assert done.stdout.splitlines()[-1] == f"{code} {executed}", done.stderr

    def test_star_import_and_dir_list_every_submodule(self):
        modules = {"channels", "cv_wigner", "gaussian", "histories", "linalg", "otoc", "pdm", "process_matrix",
                   "timecrystal"}
        namespace = {}
        exec("from spacetimeq import *", namespace)
        assert set(namespace) - {"__builtins__"} == modules
        assert modules <= set(dir(spacetimeq))
        assert all(namespace[name] is getattr(cli, name) for name in modules)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'cli_helpers'"):
            spacetimeq.cli_helpers
        assert not hasattr(spacetimeq, "nosuchmodule")


def test_widest_normcheck_grid_stays_small():
    # 2308 points at 2 levels is the widest grid inside MAX_NORMCHECK_WORK; its grid sum enumerates one
    # octant. The call runs in a grandchild, because a process's ru_maxrss starts from that of its
    # forking parent
    script = ("import resource, subprocess, sys\n"
              "argv = ['cv-wigner', 'normcheck', '--points', '2308', '--nmax', '2']\n"
              "done = subprocess.run([sys.executable, '-m', 'spacetimeq.cli', *argv], capture_output=True)\n"
              "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    done = python_in_subprocess(script)
    code, peak = map(int, done.stdout.split())
    peak_mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes there, KiB elsewhere
    assert code == cli.EXIT_INVARIANT  # the identity channel is unresolved on 2 levels
    assert peak_mb < 120


# -- fuzzing every experiment through its declared parameters -----------------

# Sizes are kept small so that each call stays cheap; parameters listed here are
# always drawn, since their defaults are expensive.
SIZE_CAPS = {"points": 8, "nmax": 12, "length": 4, "periods": 32}
# Valid forms of the free-text parameters; malformed text is mixed in below.
TEXT_SAMPLES = {
    "steps": ["identity", "hadamard,dephasing:0.3", "depolarizing:0.2,haar", "haar,haar"],
    "paulis": ["Z,Z", "X,Y,Z", "Z", "I,X"],
    "kind": ["vacuum", "thermal:1.5", "tmss:0.4", "thermal:-1"],
    "initial": ["vacuum", "thermal:0.5", "tmss:0.2"],
    "step": ["identity", "rotation:0.4", "squeeze:0.2"],
    "alpha": ["0,0", "0.3,-0.2", "1"],
    "beta": ["0,0", "-0.1,0.4"],
    "i": ["X", "y", "Z", "I"],
    "j": ["X", "Y", "z", "I"],
}
JUNK = st.text(alphabet="XYZIahdr:,.-0123456789", max_size=8)


def param_values(param):
    """Argument text for one declared parameter, in and out of its domain."""
    if param.type is bool:
        return st.booleans()
    if param.type is int:
        lo = 0 if param.lo is None else int(param.lo)
        top = SIZE_CAPS.get(param.name, 1000 if param.name == "seed" else 6)
        return st.one_of(st.integers(lo, max(lo, top)), st.sampled_from([lo - 1, -3]))
    if param.type is float:
        return st.one_of(st.floats(-2.0, 2.0), st.sampled_from([float("nan"), float("inf"), -1e300]))
    valid = list(param.choices) or TEXT_SAMPLES.get(param.name, [param.default])
    return st.one_of(st.sampled_from(valid), JUNK)


@st.composite
def invocations(draw, name):
    argv = name.split(".")
    for param in cli.EXPERIMENTS[name].params:
        if param.name not in SIZE_CAPS and draw(st.booleans()):
            continue  # leave it at its default
        value = draw(param_values(param))
        if param.type is bool:
            argv += [param.flag] if value != param.default else []
        else:
            argv.append(f"{param.flag}={value}")
    return argv + draw(st.sampled_from([[], ["--format", "csv"]]))


# Derandomized so that every run draws the same examples; raising max_examples
# gives a longer search (400 per experiment ran clean).
@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_arguments_keep_the_exit_contract(name, data):
    argv = data.draw(invocations(name))
    code, out, err = call(*argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err
    if code in (0, 3) and "csv" not in argv:
        strict_json(out)


def readme_invocations():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n(.*?)```", text, flags=re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("spacetimeq ")]


@pytest.mark.parametrize("line", readme_invocations())
def test_readme_examples_parse(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert getattr(args, "experiment", None) in cli.EXPERIMENTS or args.config or args.list
