"""Command line front end: exit codes, CSV contracts, determinism."""

import numpy as np
import pytest

from klbounds import cli, verify


def run(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)])
    return code, out


class TestBoundCommand:
    def test_toy_table(self, tmp_path, capsys):
        code, out = run(
            ["bound", "--set", "n=4", "--set", "toy_w=0.1", "--set", "toy_sigma=1"],
            tmp_path,
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("n,mode,value")
        assert "0.17342640972002737" in text  # exact KL
        assert "0.88971791073526718" in text  # simple bound
        assert text.strip().splitlines()[-1].startswith("# tool_version=")
        assert "certified" in capsys.readouterr().out

    def test_missing_constant_names_key(self, tmp_path, capsys):
        code, _ = run(["bound", "--set", "n=4", "--set", "L=0.9"], tmp_path)
        assert code == 2
        assert "`c`" in capsys.readouterr().err

    def test_explicit_constants(self, tmp_path):
        code, out = run(
            ["bound", "--set", "n=2", "--set", "L=0.5", "--set", "c=1",
             "--set", "c_prime=2", "--set", "w2_init=1"],
            tmp_path,
        )
        assert code == 0
        simple_row = [r for r in out.read_text().splitlines() if ",simple," in r]
        assert float(simple_row[0].split(",")[2]) == pytest.approx(0.36)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["bound", "--set", "n=7", "--set", "toy_w=0.1", "--set", "toy_sigma=0.5"]
        _, out1 = run(args, tmp_path, "a.csv")
        _, out2 = run(args, tmp_path, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_long_contractive_horizon(self, tmp_path):
        code, out = run(
            ["bound", "--set", "n=10000", "--set", "L=0.9", "--set", "c=1",
             "--set", "c_prime=1", "--set", "e_strong=0.1"],
            tmp_path,
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:-1]]
        assert [r[1] for r in rows] == ["simple", "closed_form", "certified"]
        assert all(np.isfinite(float(r[2])) for r in rows)

    def test_overflowing_constant_gives_inf(self, tmp_path, capsys):
        code, out = run(
            ["bound", "--set", "n=1000", "--set", "L=1", "--set", "c=1",
             "--set", "c_prime=1", "--set", "e_strong=1e200"],
            tmp_path,
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:-1]]
        # the simple bound reads the bias level `a`, left at 0
        assert [(r[1], r[2]) for r in rows] == [
            ("simple", "0"), ("closed_form", "inf"), ("certified", "inf")
        ]

    @pytest.mark.parametrize("bad", ["L=nan", "c=inf", "e_strong=nan"])
    def test_non_finite_constant_is_a_usage_error(self, tmp_path, capsys, bad):
        # a later --set overrides an earlier one
        code, _ = run(["bound", "--set", "n=5", "--set", "L=0.9", "--set", "c=1",
                       "--set", "c_prime=1", "--set", bad], tmp_path)
        assert code == 2
        assert bad.split("=")[0] in capsys.readouterr().err

    def test_invalid_mode_rejected(self, tmp_path, capsys):
        code, _ = run(
            ["bound", "--set", "n=3", "--set", "toy_w=0", "--set", "toy_sigma=1",
             "--set", "modes=bogus"],
            tmp_path,
        )
        assert code == 2
        assert "modes" in capsys.readouterr().err


    @pytest.mark.parametrize("bad, message", [("toy_w=nan", "error: w must be finite"),
                                              ("toy_sigma=nan", "error: sigma must be finite")])
    def test_non_finite_toy_input_names_its_parameter(self, tmp_path, capsys, bad, message):
        # not a derived constant such as b_bar
        code, out = run(["bound", "--set", "n=4", "--set", "toy_w=0.1",
                         "--set", "toy_sigma=1", "--set", bad], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["toy_sigma=-1", "toy_w=nan"])
    def test_invalid_toy_pair_is_a_usage_error(self, tmp_path, bad):
        code, out = run(["bound", "--set", "n=4", "--set", "toy_w=0.1",
                         "--set", "toy_sigma=1", "--set", bad], tmp_path)
        assert code == 2
        assert not out.exists()


class TestShiftsCommand:
    def test_schedule_csv(self, tmp_path):
        code, out = run(
            ["shifts", "--set", "n=4", "--set", "a=0", "--set", "d0=1"], tmp_path
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,eta,distance"
        etas = [float(l.split(",")[1]) for l in lines[1:5]]
        np.testing.assert_allclose(etas, [0.25, 1 / 3, 0.5, 1.0], rtol=1e-12)

    @pytest.mark.parametrize("n", [8, 40, 300])
    def test_oracle_line_for_every_n(self, tmp_path, capsys, n):
        code, _ = run(["shifts", "--set", f"n={n}", "--set", "L=0.9", "--set", "a=0.2",
                       "--set", "d0=2"], tmp_path)
        assert code == 0
        oracle = [line for line in capsys.readouterr().out.splitlines() if "dp oracle" in line]
        assert len(oracle) == 1
        assert float(oracle[0].split("rel gap")[1].strip(" )")) <= 1e-12

    def test_invalid_contraction(self, tmp_path):
        code, _ = run(
            ["shifts", "--set", "n=4", "--set", "a=0", "--set", "d0=1", "--set", "L=1.5"],
            tmp_path,
        )
        assert code == 2


class TestPlanCommand:
    BASE = ["plan", "--set", "alpha=1", "--set", "beta=2", "--set", "d=4",
            "--set", "eps=0.5", "--set", "W=3"]

    def test_nine_cells(self, tmp_path, capsys):
        code, out = run(self.BASE, tmp_path)
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith(("scheme", "#"))]
        assert len(rows) == 9
        lmc_slc = rows[0].split(",")
        assert int(lmc_slc[3]) == 178
        md = capsys.readouterr().out
        separators = [l for l in md.splitlines() if l and set(l) <= {"|", "-"}]
        assert len(separators) == 1

    def test_eps_out_of_range(self, tmp_path, capsys):
        code, _ = run(
            ["plan", "--set", "alpha=1", "--set", "beta=2", "--set", "d=4",
             "--set", "eps=2.5", "--set", "scheme=LMC", "--set", "setting=SLC"],
            tmp_path,
        )
        assert code == 2
        assert "range" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("alpha = 1\nbeta = 2\nd = 4\neps = 0.5\nW = 3  # comment\n")
        out = tmp_path / "plan.csv"
        code = cli.main(
            ["plan", "--config", str(cfg), "--set", "setting=WLC",
             "--set", "scheme=LMC", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3  # header + row + metadata


class TestSampleAndLocalErrors:
    def test_sample_csv_columns(self, tmp_path):
        code, out = run(
            ["sample", "--set", "h=0.1", "--set", "n=3", "--set", "samples=5",
             "--set", "precision=1", "--seed", "9"],
            tmp_path,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replica,step,coord_0"
        assert len(lines) == 1 + 5 * 4 + 1

    def test_local_errors_slopes(self, tmp_path, capsys):
        code, out = run(
            ["local-errors", "--set", "scheme=LMC",
             "--set", "h_grid=0.2,0.1,0.05,0.025", "--set", "x=1"],
            tmp_path,
        )
        assert code == 0
        assert "slopes" in capsys.readouterr().out
        rows = out.read_text().splitlines()
        assert rows[0].startswith("h,weak,strong")
        assert len(rows) == 1 + 4 + 1

    @pytest.mark.parametrize("command", ["sample", "local-errors"])
    @pytest.mark.parametrize("h", ["nan", "inf", "0", "-0.1"])
    def test_invalid_step_is_a_usage_error(self, tmp_path, capsys, command, h):
        code, out = run([command, "--set", f"h={h}", "--set", "n=3", "--set", "x=1"], tmp_path)
        assert code == 2
        assert "h must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_fast_suites_pass(self, tmp_path):
        for suite in ("local-errors", "slopes", "gaussian-lmc"):
            code, out = run(["verify", suite], tmp_path, f"{suite}.csv")
            assert code == 0
            lines = out.read_text().splitlines()
            assert lines[0] == "check,observed,reference,tolerance,passed"
            assert all(l.rsplit(",", 1)[1] == "1" for l in lines[1:-1])

    def test_unknown_suite(self, tmp_path, capsys):
        code, _ = run(["verify", "nope"], tmp_path)
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_failing_suite_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            verify.SUITES, "broken",
            lambda: [verify.CheckRow("always_fails", 0.0, 1.0, 0.0, False)],
        )
        code, out = run(["verify", "broken"], tmp_path)
        assert code == 1
        assert "always_fails" in out.read_text()

    def test_bad_set_syntax(self, tmp_path, capsys):
        code, _ = run(["bound", "--set", "n4"], tmp_path)
        assert code == 2
        assert "key=value" in capsys.readouterr().err


class TestRejectedInput:
    FLAGS = {
        "bound": {"--config", "--set", "--out", "--constant"},
        "shifts": {"--config", "--set", "--out"},
        "plan": {"--config", "--set", "--out", "--constant"},
        "sample": {"--config", "--set", "--out", "--seed"},
        "local-errors": {"--config", "--set", "--out"},
        "verify": {"--out"},
    }
    VALUES = {"--config": "x.cfg", "--set": "n=1", "--out": "x.csv", "--seed": "1",
              "--constant": "2"}
    POSITIONAL = {"verify": ["toy"]}

    def test_each_subcommand_takes_exactly_its_flags(self):
        parser = cli.build_parser()
        for command, flags in self.FLAGS.items():
            for flag, value in self.VALUES.items():
                argv = [command, *self.POSITIONAL.get(command, []), flag, value]
                if flag in flags:
                    assert parser.parse_args(argv).command == command
                else:
                    with pytest.raises(SystemExit) as exc:
                        parser.parse_args(argv)
                    assert exc.value.code == 2, (command, flag)

    def test_unknown_flag_shows_the_subcommand_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["shifts", "--set", "n=8", "--set", "a=0.2", "--set", "d0=2", "--seed", "1"],
                tmp_path)
        assert exc.value.code == 2
        err = " ".join(capsys.readouterr().err.split())  # argparse wraps to the terminal
        assert err.startswith("usage: klbounds shifts [-h] [--config CONFIG] [--set KEY=VALUE]")
        assert "klbounds shifts: error: unrecognized arguments: --seed 1" in err

    @pytest.mark.parametrize("argv, key", [
        (["bound", "--set", "n=10", "--set", "L=0.9", "--set", "c=1", "--set", "c_prime=1",
          "--set", "e_strog=0.1"], "e_strog"),
        (["bound", "--set", "n=4", "--set", "toy_w=0.1", "--set", "toy_sigma=1",
          "--set", "L=0.9"], "L"),
        (["shifts", "--set", "n=4", "--set", "a=0", "--set", "d0=1", "--set", "dp=0"], "dp"),
        (["local-errors", "--set", "h=0.1", "--set", "samples=10"], "samples"),
        (["local-errors", "--set", "h_grid=0.2,0.1", "--set", "h=0.1"], "h"),
        (["plan", "--set", "alpha=1", "--set", "beta=2", "--set", "d=4", "--set", "eps=0.5",
          "--set", "W=3", "--set", "chi2_init=5"], "chi2_init"),
        # zeta0 and zeta1 are read only for LMC_SMOOTH cells, W only for WLC cells
        (["plan", "--set", "scheme=RMLMC", "--set", "setting=SLC", "--set", "alpha=1",
          "--set", "beta=2", "--set", "d=4", "--set", "eps=0.5", "--set", "zeta0=5"], "zeta0"),
        (["plan", "--set", "scheme=RMLMC", "--set", "setting=WLC", "--set", "alpha=1",
          "--set", "beta=2", "--set", "d=4", "--set", "eps=0.5", "--set", "W=3",
          "--set", "zeta1=1"], "zeta1"),
        (["plan", "--set", "scheme=LMC_SMOOTH", "--set", "setting=SLC,LSI", "--set", "alpha=1",
          "--set", "beta=2", "--set", "d=4", "--set", "eps=0.5", "--set", "zeta0=1",
          "--set", "W=3"], "W"),
    ])
    def test_unread_config_key_exits_2(self, tmp_path, capsys, argv, key):
        code, out = run(argv, tmp_path)
        assert code == 2
        assert f"`{key}`" in capsys.readouterr().err
        assert not out.exists()
