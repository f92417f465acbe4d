import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from isoladder import coherent, isospectral, ladder, numerics, params, report
from isoladder.fock import TruncatedOperator
from isoladder.ladder import constant_weights, custom_weights, geometric_weights, linear_weights, power_law_weights
from isoladder.cli import _OPTIONS, COMMANDS, ConfigError, RunConfig, build_config, main, make_parser, to_csv, to_json


ROOT = Path(__file__).resolve().parents[1]
PDO_GOLDEN = ROOT / "perfbench" / "golden" / "pdo_series.json"
# {repr(w): {"lowering_series": [...], "raising_series": [...]}} for every benchmark w
PDO_GOLDEN_SERIES = json.loads(PDO_GOLDEN.read_text(encoding="utf-8"))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        parser = make_parser()
        config = build_config(parser.parse_args(["spectrum"]))
        assert config.lam == 2.0 and config.trunc == 64
        assert config.weights_kind == "distorted" and config.w == 1.0

    def test_flag_overrides(self):
        parser = make_parser()
        config = build_config(parser.parse_args(["order", "--weights", "linear", "--nu", "2.0"]))
        assert config.weights().label() == "power(nu=2)"

    def test_one_grammar_for_every_command(self, capsys):
        # the battery's form, spaced values and flags before the command read alike
        forms = [["report", "--lambda=-3.0", "--trunc=64"], ["report", "--lambda", "-3", "--trunc", "64"],
                 ["--trunc=64", "report", "--lambda=-3"]]
        configs = [vars(build_config(make_parser().parse_args(argv))) for argv in forms]
        assert configs[0] == configs[1] == configs[2] and configs[0]["lam"] == -3.0
        with pytest.raises(SystemExit) as exit_info:
            main(["nosuch"])
        error_line = capsys.readouterr().err.splitlines()[-1]
        assert exit_info.value.code == 2 and error_line.startswith("isoladder: error:")
        assert all(name in error_line for name in COMMANDS)
        text = make_parser().format_help()
        flags = ["--" + key.replace("_", "-") for key, _, _, _, flag in _OPTIONS if flag is not None] + ["--config"]
        assert all(name in text for name in COMMANDS) and all(flag in text for flag in flags)

    def test_file_then_flags_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 3.5\ntrunc = 32\nweights = constant\nw = 2.0\n# comment\n")
        parser = make_parser()
        config = build_config(parser.parse_args(["spectrum", "--config", str(cfg), "--trunc", "16"]))
        assert config.lam == 3.5
        assert config.trunc == 16  # flag wins over file
        assert config.weights_kind == "constant"

    def test_custom_weights_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weights = custom\ncustom = 1.0, 0.5, 2.0\n")
        parser = make_parser()
        config = build_config(parser.parse_args(["commutator", "--config", str(cfg)]))
        assert config.weights().weight_array(2)[-1] == 0.5

    def test_weight_rule_reads_only_its_parameter(self):
        # a rule carries only the parameter it reads, whatever the other options hold
        others = {"w": 2.0, "q": 0.7, "custom": (1.0, 0.5, 2.0)}
        got = [RunConfig(weights_kind=kind, **others).weights() for kind in ("constant", "geometric", "custom", "linear")]
        assert got == [constant_weights(2.0), geometric_weights(0.7), custom_weights([1.0, 0.5, 2.0]), linear_weights()]
        assert RunConfig(weights_kind="linear", nu=2.0, **others).weights() == power_law_weights(2.0)
        assert RunConfig(weights_kind="linear", nu=1.0, **others).weights() == linear_weights()

    def test_unknown_setting_refused(self):
        # RunConfig takes the _OPTIONS attributes alone, each defaulting to its row's value
        with pytest.raises(TypeError, match="RunConfig has no setting 'bogus'"):
            RunConfig(bogus=1)
        assert {attr: getattr(RunConfig(), attr) for _, attr, _, _, _ in _OPTIONS} == {
            attr: default for _, attr, _, default, _ in _OPTIONS}

    def test_invalid_lambda_named(self):
        parser = make_parser()
        with pytest.raises(ConfigError) as err:
            build_config(parser.parse_args(["spectrum", "--lambda", "0.5"]))
        assert "sqrt(pi)/2" in str(err.value)

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambada = 2\n")
        parser = make_parser()
        with pytest.raises(ConfigError):
            build_config(parser.parse_args(["spectrum", "--config", str(cfg)]))

    # one non-default value per option that has a flag, as the config file writes it
    FLAG_SAMPLES = {
        "lambda": "3.5", "trunc": "32", "weights": "geometric", "w": "2.5", "q": "0.7",
        "nu": "2", "zeta_re": "0.25", "zeta_im": "-0.5", "out": "outdir", "format": "csv",
    }

    def test_file_and_flag_give_the_same_value(self, tmp_path):
        flagged = [(key, attr) for key, attr, _, _, flag in _OPTIONS if flag is not None]
        assert sorted(key for key, _ in flagged) == sorted(self.FLAG_SAMPLES)
        parser = make_parser()
        for key, attr in flagged:
            text = self.FLAG_SAMPLES[key]
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {text}\n")
            from_file = build_config(parser.parse_args(["order", "--config", str(cfg)]))
            from_flag = build_config(parser.parse_args(["order", "--" + key.replace("_", "-"), text]))
            assert getattr(from_file, attr) == getattr(from_flag, attr) != getattr(RunConfig(), attr), key

    @pytest.mark.parametrize("kind", ["power", "foo"])
    def test_weights_outside_the_flag_choices_refused_in_file(self, kind, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"weights = {kind}\nnu = 2\n")
        parser = make_parser()
        with pytest.raises(ConfigError, match="'weights' must be one of"):
            build_config(parser.parse_args(["order", "--config", str(cfg)]))

    def test_non_finite_custom_refused(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weights = custom\ncustom = 1, nan\n")
        parser = make_parser()
        with pytest.raises(ConfigError, match="'custom' must be finite"):
            build_config(parser.parse_args(["order", "--config", str(cfg)]))


class TestEmitters:
    def test_float_formatting_17_digits(self):
        text = to_json({"x": 0.1, "y": 2.0})
        assert text == '{"x": 0.10000000000000001, "y": 2}\n'

    def test_complex_encoding(self):
        assert to_json(1.5 - 2.0j) == '{"re": 1.5, "im": -2}\n'
        assert json.loads(to_json(complex(math.nan, 1.0))) == {"re": "nan", "im": 1}

    def test_csv_lf_endings(self):
        text = to_csv(["a", "b"], [[1, 0.5], [2, 0.25]])
        assert text == "a,b\n1,0.5\n2,0.25\n"


class TestCommands:
    def test_bad_lambda_exit_2(self, capsys):
        code, _, err = run_cli(["spectrum", "--lambda", "0.5"], capsys)
        assert code == 2
        assert "sqrt(pi)/2" in err

    def test_lambda_beyond_2_to_500_exit_2(self, capsys):
        code, out, err = run_cli(["report", "--lambda", "1e200", "--trunc", "64"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: |lambda| must exceed sqrt(pi)/2") and "not exceed 2^500" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["spectrum"])
    def test_refused_grid_exit_1(self, command, capsys, monkeypatch):
        # U cannot be built on 32 nodes: one error line and exit 1, as the report's construction_error
        monkeypatch.setattr(report, "build_grid", lambda N: numerics.build_grid(N, nodes=32))
        code, out, err = run_cli([command], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: grid of 32 nodes") and "cannot carry psi_0 .. psi_63" in err
        assert err.count("\n") == 1

    def test_spectrum_csv(self, capsys):
        code, out, _ = run_cli(["spectrum", "--trunc", "24", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,eigenvalue,deviation,orthonormality_residual,u_row_dev"
        assert len(lines) == 1 + min(40, 24 - 5)

    def test_spectrum_default_truncation_has_40_rows(self, capsys):
        code, out, _ = run_cli(["spectrum", "--format", "csv"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 40
        assert all(float(r.split(",")[2]) < 1e-6 for r in rows)

    def test_spectrum_deterministic(self, capsys):
        _, out1, _ = run_cli(["spectrum", "--trunc", "16", "--format", "csv"], capsys)
        _, out2, _ = run_cli(["spectrum", "--trunc", "16", "--format", "csv"], capsys)
        assert out1 == out2

    def test_spectrum_large_lambda_u_column(self, capsys):
        code, out, _ = run_cli(["spectrum", "--lambda", "1e6", "--trunc", "24", "--format", "csv"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(float(r[2]) < 1e-6 for r in rows)  # deviations
        assert all(float(r[4]) < 1e-5 for r in rows)  # |U - I| column

    def test_spectrum_and_c01_fail_on_one_eigenvalue(self, capsys, monkeypatch):
        # both read report.h_tilde_eigenvalues against report.SPECTRUM_BOUND: eigenvalue 7 off by 2e-6 fails both
        shared = report.h_tilde_eigenvalues

        def shifted(basis):
            evals = shared(basis).copy()
            evals[7] += 2e-6
            return evals

        monkeypatch.setattr(report, "h_tilde_eigenvalues", shifted)
        result = report.criterion_01_isospectrality(report._Context(2.0, 64))
        (_, value, bound, ok), = result.parts
        assert not result.passed and not ok and bound == 1e-6 and value == pytest.approx(2e-6, rel=1e-3)
        code, out, _ = run_cli(["spectrum", "--trunc", "16", "--format", "csv"], capsys)
        deviations = [float(line.split(",")[2]) for line in out.strip().split("\n")[1:]]
        assert code == 1 and len(deviations) == 11
        assert deviations[7] == pytest.approx(2e-6, rel=1e-3)
        assert max(deviations[:7] + deviations[8:]) < 1e-6

    def test_commutator_json(self, capsys):
        code, out, _ = run_cli(
            ["commutator", "--weights", "distorted", "--w", "0.5", "--trunc", "24"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["weights", "trunc", "fock", "pass"]
        assert doc["fock"]["residual"] < 1e-12
        assert doc["fock"]["diagonal"][:3] == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)

    def test_commutator_q_deformed(self, capsys):
        code, out, _ = run_cli(
            ["commutator", "--weights", "geometric", "--q", "1.1", "--trunc", "24"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        expected = [0.0] + [1.1**n for n in range(1, 4)]
        got = doc["fock"]["diagonal"][:4]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_commutator_fails_on_an_off_diagonal_entry(self, capsys, monkeypatch):
        # the diagonal is untouched, so only the shared verdict's off-diagonal term can fail it
        exact = ladder.commutator

        def skewed(x, y):
            comm = exact(x, y).mat.copy()
            comm[2, 3] += 1e-3
            return TruncatedOperator(comm, x.basis)

        monkeypatch.setattr(ladder, "commutator", skewed)
        code, out, _ = run_cli(["commutator", "--trunc", "16"], capsys)
        doc = json.loads(out)
        assert doc["fock"]["residual"] < 1e-12 and doc["fock"]["offdiagonal_max"] == pytest.approx(1e-3)
        assert code == 1 and doc["pass"] is False

    def test_commutator_builds_neither_b_nor_h_tilde(self, capsys, monkeypatch):
        # commutator reads only the ladder pair: no theta basis, U, b or H~ = b+ b is built
        def refuse(*args):
            raise AssertionError("commutator built a theta-basis object")

        for module, name in ((isospectral, "ThetaBasis"), (report, "_Context"), (isospectral, "u_matrix"),
                             (isospectral, "b_matrix")):
            monkeypatch.setattr(module, name, refuse)
        code, _, _ = run_cli(["commutator", "--trunc", "16"], capsys)
        assert code == 0

    def test_commutator_reads_no_lambda(self, capsys):
        # no number in the output depends on lambda, so two lambda print the same bytes
        args = ["commutator", "--weights", "geometric", "--q", "1.1", "--trunc", "24"]
        first, second = (run_cli([*args, "--lambda", lam], capsys) for lam in ("-3", "2"))
        assert first == second and first[0] == 0

    @pytest.mark.parametrize("args, key", [
        (["order", "--weights", "constant", "--w", "inf"], "w"),
        (["order", "--weights", "geometric", "--q", "nan"], "q"),
        (["order", "--weights", "linear", "--nu", "inf"], "nu"),
        (["pdo", "--w", "inf"], "w"),
        (["coherent", "--zeta-re", "nan"], "zeta_re"),
        (["coherent", "--zeta-im", "inf"], "zeta_im"),
        (["spectrum", "--lambda", "nan"], "lambda"),
    ])
    def test_non_finite_input_exit_2(self, args, key, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert f"'{key}' must be finite" in err

    def test_coherent_rejects_beyond_radius(self, capsys):
        code, _, err = run_cli(
            ["coherent", "--weights", "geometric", "--q", "0.5", "--zeta-re", "1.5", "--zeta-im", "0"],
            capsys,
        )
        assert code == 2
        assert "radius" in err or "tail" in err

    def test_coherent_passes(self, capsys):
        code, out, _ = run_cli(
            ["coherent", "--weights", "constant", "--w", "1", "--zeta-re", "1", "--zeta-im", "0.5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True

    @pytest.mark.parametrize("args, code, residuals", [
        (["--weights", "geometric", "--q", "0.7", "--trunc", "128"], 0, [math.inf, math.inf, 1e-12, 1e-15]),
        (["--weights", "single", "--w", "2", "--trunc", "128"], 0, [math.inf, math.inf, math.inf, 1e-12]),
        (["--weights", "single", "--w", "2"], 1, [math.inf, math.inf, math.inf]),
        (["--weights", "constant", "--w", "2", "--trunc", "8"], 1, [math.inf, 1e-15, 1e-15, 1e-15]),
    ])
    def test_coherent_records_refused_sizes(self, args, code, residuals, capsys):
        # the tail guard refuses the small sizes; the verdict reads the row of the requested --trunc
        got, out, err = run_cli(["coherent", *args], capsys)
        assert got == code and err == ""
        rows = json.loads(out)["residual_vs_truncation"]
        trunc = int(args[args.index("--trunc") + 1]) if "--trunc" in args else 64
        assert [row["N"] for row in rows] == sorted({48, 64, 96, trunc})
        for row, bound in zip(rows, residuals):
            assert row["residual"] == "inf" if math.isinf(bound) else row["residual"] < bound

    @pytest.mark.parametrize("args, code, refusal", [
        (["commutator", "--weights", "geometric", "--q", "1e30", "--trunc", "16"], 2,
         "error: geometric(q=1e+30) weights overflow a float by n = 15\n"),
        (["coherent", "--weights", "linear", "--nu", "300"], 2,
         "error: power(nu=300) weights overflow a float by n = 47\n"),
        (["coherent", "--weights", "constant", "--w", "1e-10"], 1, None),
        (["commutator", "--weights", "constant", "--w", "1e308", "--trunc", "16"], 2,
         "error: constant(w=1e+308) weights' partial sums overflow a float by n = 15\n"),
        (["coherent", "--weights", "constant", "--w", "1e308"], 2,
         "error: constant(w=1e+308) weights' partial sums overflow a float by n = 47\n"),
        (["coherent", "--zeta-re", "1e200"], 1, None),
        (["coherent", "--zeta-im", "1e200"], 1, None),
        (["coherent", "--weights", "single", "--w", "2", "--zeta-re", "1e200"], 2,
         "error: normalization series diverges: |zeta|^2 = inf vs radius^2 = 2 (|zeta| radius 1.41421)\n"),
    ], ids=["geometric_weights", "power_weights", "h", "constant_partial_sums", "coherent_partial_sums",
            "zeta_re_infinite_radius", "zeta_im_infinite_radius", "zeta_finite_radius"])
    def test_overflow_refused_without_a_traceback(self, args, code, refusal):
        # a weight, a partial sum, an h or a |zeta|^2 past the largest float: one error line and exit 2, or
        # (h, and |zeta|^2 under an infinite radius) inf rows and exit 1
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "isoladder", *args], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == code and "Traceback" not in run.stderr
        if refusal is not None:
            assert run.stdout == "" and run.stderr == refusal
        else:
            assert run.stderr == ""
            assert [row["residual"] for row in json.loads(run.stdout)["residual_vs_truncation"]] == ["inf"] * 3

    @pytest.mark.parametrize("nu", ["-2", "-1"], ids=["summable_weights", "log_growing_weights"])
    def test_order_refuses_power_weights_at_nu_minus_one_and_below(self, nu, capsys):
        # at nu = -2 W_n -> zeta(2), a finite radius sqrt(pi^2/6); at nu = -1 W_n ~ ln n, an infinite order;
        # the growth window's flatness test and c10's target 2/(1 + nu) both read nu > -1
        code, out, err = run_cli(["order", "--weights", "linear", "--nu", nu], capsys)
        assert (code, out, err) == (2, "", f"error: power weights need finite nu > -1, got {float(nu)!r}\n")

    def test_order_keeps_power_weights_just_above_nu_minus_one(self, capsys):
        code, out, _ = run_cli(["order", "--weights", "linear", "--nu", "-0.5"], capsys)
        assert code == 0 and json.loads(out)["weights"] == "power(nu=-0.5)"

    @pytest.mark.parametrize("args", [["--weights", "geometric", "--q", "1e30"],
                                      ["--weights", "linear", "--nu", "300"]])
    def test_order_reads_overflowing_weights_by_their_logs(self, args, capsys):
        code, out, err = run_cli(["order", *args], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["entire"] is True

    def test_order_refuses_zero_first_weight(self, capsys):
        code, out, err = run_cli(["order", "--weights", "single", "--w", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "error: order estimate needs w_1 > 0, got 0.0\n"

    def test_order_case_iii(self, capsys):
        code, out, _ = run_cli(["order", "--weights", "linear"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["rho"] - 1.0) < 0.02

    def test_order_not_entire(self, capsys):
        code, out, _ = run_cli(["order", "--weights", "single", "--w", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["entire"] is False
        assert abs(doc["radius"] - 2**0.5) < 1e-3

    def test_pdo_verdicts(self, capsys):
        code, out, _ = run_cli(["pdo", "--w", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(chk["verdict"] == "PASS" for chk in doc["checks"])
        assert [chk["name"] for chk in doc["checks"]] == [
            "lowering_reference_through_d-2",
            "raising_reference_through_d-2",
            "lowering_raising_product_identity",
            "raising_lowering_product_identity",
            "inv_sqrt_bracket_d-3",
            "inv_sqrt_bracket_d-4",
            "inv_sqrt_bracket_square_back",
        ]
        assert doc["prefactor"] == "-1*i*sqrt2"
        assert doc["w"] == 3.0

    @pytest.mark.parametrize("args", [["--weights", "linear", "--w", "-1"], ["--weights", "single", "--w", "0"]])
    def test_pdo_checks_w_against_the_distorted_rule(self, args, capsys):
        # pdo expands the distorted algebra (w > 0), whatever --weights names
        code, out, err = run_cli(["pdo", *args], capsys)
        assert code == 2 and out == ""
        assert "distorted weights need finite w > 0" in err

    @pytest.mark.parametrize("w", sorted(PDO_GOLDEN_SERIES, key=float))
    def test_pdo_series_match_benchmark_golden(self, w, capsys):
        golden = PDO_GOLDEN_SERIES[w]
        code, out, _ = run_cli(["pdo", "--w", w], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["lowering_series"] == golden["lowering_series"]
        assert doc["raising_series"] == golden["raising_series"]

    @pytest.mark.parametrize("args", [["--lambda", "0.5"], ["--lambda", "1e151"], ["--weights", "custom"],
                                      ["--weights", "geometric", "--q", "-1"]])
    def test_pdo_refuses_as_spectrum_does(self, args, capsys):
        # pdo runs the same admissibility checks as the numeric commands, without their modules
        pdo_run = run_cli(["pdo", *args], capsys)
        assert pdo_run == run_cli(["spectrum", *args], capsys)
        code, out, err = pdo_run
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_every_refusal_derives_from_one_class(self):
        # main catches params.Refusal alone and exits with its exit_code: 1 for a refused U, else 2
        refusals = [ConfigError, params.ParameterError, params.WeightError, coherent.DivergenceError,
                    coherent.TruncationError, coherent.WeightSequenceTooShort, isospectral.ConstructionError]
        assert all(issubclass(cls, params.Refusal) for cls in refusals)
        assert [cls.exit_code for cls in refusals] == [2, 2, 2, 2, 2, 2, 1]
        assert isospectral.ParameterError is params.ParameterError and ladder.WeightError is params.WeightError

    def test_pdo_imports_no_numpy(self):
        # a fresh interpreter: the exact PDO command loads neither numpy nor a numeric module,
        # nor dataclasses and the inspect it imports
        script = ("import sys\nfrom isoladder import cli\ncode = cli.main(['pdo', '--w', '3'])\n"
                  "print(code, [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules],"
                  " sorted(m for m in sys.modules if m.startswith('isoladder.')), file=sys.stderr)")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert run.stderr == "0 [] ['isoladder.cli', 'isoladder.params', 'isoladder.pdo']\n"
        doc = json.loads(run.stdout)
        assert doc["lowering_series"] == PDO_GOLDEN_SERIES["3.0"]["lowering_series"]
        assert doc["raising_series"] == PDO_GOLDEN_SERIES["3.0"]["raising_series"]

    def test_report_leaves_numpy_polynomial_unloaded(self):
        # a fresh interpreter: c06's midpoint rule needs no Gauss-Legendre nodes, so nothing loads numpy.polynomial
        script = ("import sys\nfrom isoladder import cli\ncode = cli.main(['report', '--trunc', '64'])\n"
                  "print(code, 'numpy.polynomial' in sys.modules, file=sys.stderr)")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert run.stderr == "0 False\n"
        assert json.loads(run.stdout)["all_pass"]

    @pytest.mark.parametrize("args", [["pdo", "--w", "1"], ["order", "--weights", "linear"]])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_unusable_out_exit_2(self, args, under_file, tmp_path, capsys):
        # --out at an existing file, or under one: one error line and exit 2, as an unreadable --config
        target = tmp_path / "taken"
        target.write_text("")
        out_dir = target / "sub" if under_file else target
        code, out, err = run_cli([*args, "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": '{out_dir}'\n") and err.count("\n") == 1

    def test_out_directory(self, tmp_path, capsys):
        # order writes JSON whatever --format asks, so its file is always .json
        for fmt in ("json", "csv"):
            out_dir = tmp_path / fmt
            code, out, _ = run_cli(
                ["order", "--weights", "linear", "--format", fmt, "--out", str(out_dir)], capsys
            )
            assert code == 0
            target = out_dir / "order.json"
            assert out == f"{target}\n"
            assert sorted(out_dir.iterdir()) == [target]
            assert json.loads(target.read_text())["entire"] is True


class TestReportCommand:
    def test_small_truncation_fails(self, capsys):
        code, out, _ = run_cli(["report", "--trunc", "8"], capsys)
        assert code == 1
        doc = json.loads(out)
        failing = [c["name"] for c in doc["criteria"] if not c["pass"]]
        assert "c01_isospectrality" in failing
        assert "c08_cs_eigen_residual" in failing

    def test_report_byte_identical(self, capsys):
        _, out1, _ = run_cli(["report", "--trunc", "8"], capsys)
        _, out2, _ = run_cli(["report", "--trunc", "8"], capsys)
        assert out1 == out2

    def test_report_unchanged_by_a_run_at_another_lambda(self, capsys):
        _, before, _ = run_cli(["report"], capsys)
        run_cli(["report", "--lambda=-3"], capsys)
        _, after, _ = run_cli(["report"], capsys)
        assert before == after

    def test_defaults_all_pass(self, capsys):
        code, out, _ = run_cli(["report"], capsys)
        assert code == 0
        assert json.loads(out)["all_pass"] is True


class TestDocs:
    README = (ROOT / "README.md").read_text(encoding="utf-8")

    def test_readme_lists_the_parser_weight_choices(self):
        listed = re.search(r"`--weights \{([^}]*)\}`", self.README).group(1)
        choices = next(action.choices for action in make_parser()._actions if "--weights" in action.option_strings)
        assert re.sub(r"\s", "", listed).split("|") == choices

    def test_readme_states_the_run_config_defaults(self):
        sentence = re.search(r"defaults \(`lambda = (\S+)`,\s+`trunc = (\d+)`, (\w+) weights with `w = (\S+)`\)",
                             self.README)
        lam, trunc, kind, w = sentence.groups()
        config = RunConfig()
        assert (float(lam), int(trunc), kind, float(w)) == (config.lam, config.trunc, config.weights_kind, config.w)

    def test_readme_lists_exactly_the_parser_flags(self):
        paragraph = self.README[self.README.index("Flags:"):].split("\n\n", 1)[0]
        documented = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
        defined = {s for action in make_parser()._actions for s in action.option_strings if s.startswith("--")}
        assert documented == defined - {"--help"}
