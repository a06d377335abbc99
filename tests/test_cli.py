from pathlib import Path

import pytest

from iss_parabolic import ScenarioError
from iss_parabolic.cli import main
from iss_parabolic.scenarios import make_signal, parse_scenario, parse_selector

SUITES = Path(__file__).resolve().parent.parent / "suites"


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


FAST_SCENARIO = """
[scenario]
name = {name}
kind = simulate
seed = 9

[grid]
n_interior = 63
dt = 2e-4
t_final = 0.2

[problem]
a = 1.0
initial = sin_pi

[check]
decay_rate = 9.869604401089358
"""

KERNEL_SCENARIO = """
[scenario]
name = kern
kind = kernel_synthesis

[grid]
n_interior = 63
dt = 2e-4
t_final = 0.1

[problem]
a = 1.0
k_reaction = 10.0
"""

CONSTANT_DISTURBANCE_LOOP = """
[scenario]
name = const_d
kind = backstepping_loop
seed = 8

[grid]
n_interior = 31
dt = 4e-4
t_final = 0.2

[problem]
a = 1.0
k_reaction = 15.0
initial = sin_pi
d0 = constant(0.3)

[loop]
mode = closed

[check]
p = 2
"""

# sigma lies outside (0, a pi^2), so the weighted sup check raises.
RAISING_CHECK = """
[scenario]
name = bad_sigma
kind = iss_check

[grid]
n_interior = 15
dt = 1e-3
t_final = 0.05

[problem]
a = 1.0
initial = sin_pi

[check]
estimate = weighted_sup
sigma = 100
"""


class TestScenarioParsing:
    def test_selector_forms(self):
        assert parse_selector("zero") == ("zero", [])
        assert parse_selector("step(0.5, 0.05)") == ("step", ["0.5", "0.05"])
        with pytest.raises(ScenarioError):
            parse_selector("1bad(")

    def test_parse_shipped_scenario(self):
        scn = parse_scenario(SUITES / "core" / "eigen_decay.scn")
        assert scn.kind == "simulate"
        assert scn.grid.n_interior == 199
        assert scn.decay_rate == pytest.approx(9.869604401089358)

    @pytest.mark.parametrize(
        "path", sorted(SUITES.glob("**/*.scn")), ids=lambda p: f"{p.parent.name}/{p.name}"
    )
    def test_every_shipped_scenario_parses(self, path):
        scn = parse_scenario(path)
        assert scn.name == path.stem

    def test_unknown_key_rejected(self, tmp_path):
        bad = _write(tmp_path / "bad.scn", FAST_SCENARIO.format(name="x") + "\ntypo_key = 1\n")
        with pytest.raises(ScenarioError):
            parse_scenario(bad)

    def test_unknown_kind_rejected(self, tmp_path):
        text = FAST_SCENARIO.format(name="x").replace("kind = simulate", "kind = warp")
        with pytest.raises(ScenarioError):
            parse_scenario(_write(tmp_path / "bad.scn", text))

    def test_missing_grid_rejected(self, tmp_path):
        bad = _write(tmp_path / "bad.scn", "[scenario]\nname = x\nkind = simulate\n")
        with pytest.raises(ScenarioError):
            parse_scenario(bad)

    def test_bad_grid_rejected(self, tmp_path):
        base = FAST_SCENARIO.format(name="x")
        for bad in (
            base.replace("n_interior = 63", "n_interior = 2"),
            base.replace("dt = 2e-4", "dt = 3e-4").replace("t_final = 0.2", "t_final = 0.1"),
        ):
            with pytest.raises(ScenarioError):
                parse_scenario(_write(tmp_path / "bad.scn", bad))

    @pytest.mark.parametrize(
        "line",
        ["decay_rate = 0", "decay_rate = -1", "decay_rate = inf", "decay_rate = nan", "p = 0.5", "p = nan", "seed = -1"],
    )
    def test_out_of_domain_value_rejected(self, tmp_path, line):
        key = line.split(" = ")[0]
        old = "seed = 9" if key == "seed" else "decay_rate = 9.869604401089358"
        text = FAST_SCENARIO.format(name="x").replace(old, line)
        with pytest.raises(ScenarioError, match=rf"\.{key}: "):
            parse_scenario(_write(tmp_path / "bad.scn", text))

    def test_infinite_p_accepted(self, tmp_path):
        text = FAST_SCENARIO.format(name="x").replace("decay_rate = 9.869604401089358", "p = inf")
        assert parse_scenario(_write(tmp_path / "s.scn", text)).p == float("inf")

    def test_file_signal_roundtrip(self, tmp_path):
        table = tmp_path / "sig.csv"
        table.write_text("t,value\n0.0,0.0\n0.1,0.5\n0.2,0.25\n")
        scn = parse_scenario(
            _write(
                tmp_path / "s.scn",
                FAST_SCENARIO.format(name="x").replace("initial = sin_pi", f"initial = zero\nd0 = file({table})"),
            )
        )
        sig = make_signal(scn.d0, scn.grid, scn.base_dir)
        assert sig(0.05) == pytest.approx(0.25)
        assert sig.sup_norm == 0.5


class TestRunCommand:
    def test_passing_scenario_exit_zero(self, tmp_path, capsys):
        scn = _write(tmp_path / "ok.scn", FAST_SCENARIO.format(name="ok"))
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "name,kind,pass,min_margin,wall_ms"
        assert rows[1].startswith("ok,simulate,true,")
        out = tmp_path / "out" / "ok"
        assert (out / "trajectory.csv").exists()
        assert (out / "report.csv").exists()
        assert (out / "plot.svg").exists()

    def test_tampered_gain_fixture_exit_one(self, tmp_path):
        code = main(["run", str(SUITES / "negative" / "tampered_gain.scn"), "--out", str(tmp_path)])
        assert code == 1

    def test_parse_error_exit_two(self, tmp_path):
        bad = _write(tmp_path / "bad.scn", "[scenario]\nname = b\nkind = nope\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2

    def test_nonpositive_decay_rate_exit_two(self, tmp_path):
        text = FAST_SCENARIO.format(name="z").replace("decay_rate = 9.869604401089358", "decay_rate = 0")
        scn = _write(tmp_path / "z.scn", text)
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2

    def test_negative_seed_flag_exit_two(self, tmp_path):
        scn = _write(tmp_path / "ok.scn", FAST_SCENARIO.format(name="ok"))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(scn), "--out", str(tmp_path / "out"), "--seed", "-3"])
        assert exc.value.code == 2

    def test_no_plots_flag(self, tmp_path):
        scn = _write(tmp_path / "ok.scn", FAST_SCENARIO.format(name="ok"))
        assert main(["run", str(scn), "--out", str(tmp_path / "out"), "--no-plots"]) == 0
        assert not (tmp_path / "out" / "ok" / "plot.svg").exists()

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ISS_PARABOLIC_OUT", str(tmp_path / "env_out"))
        scn = _write(tmp_path / "ok.scn", FAST_SCENARIO.format(name="ok"))
        assert main(["run", str(scn)]) == 0
        assert (tmp_path / "env_out" / "ok" / "report.csv").exists()

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        scn = _write(tmp_path / "det.scn", FAST_SCENARIO.format(name="det"))
        for out in ("out1", "out2"):
            assert main(["run", str(scn), "--out", str(tmp_path / out), "--no-plots"]) == 0
        for artifact in ("trajectory.csv", "report.csv"):
            a = (tmp_path / "out1" / "det" / artifact).read_bytes()
            b = (tmp_path / "out2" / "det" / artifact).read_bytes()
            assert a == b

    def test_seed_override_changes_random_data(self, tmp_path):
        text = FAST_SCENARIO.format(name="rnd").replace(
            "initial = sin_pi", "initial = random_smooth(4, 0.8)"
        ).replace("decay_rate = 9.869604401089358", "")
        scn = _write(tmp_path / "rnd.scn", text)
        assert main(["run", str(scn), "--out", str(tmp_path / "o1"), "--no-plots"]) == 0
        assert main(["run", str(scn), "--out", str(tmp_path / "o2"), "--no-plots", "--seed", "77"]) == 0
        a = (tmp_path / "o1" / "rnd" / "trajectory.csv").read_bytes()
        b = (tmp_path / "o2" / "rnd" / "trajectory.csv").read_bytes()
        assert a != b


    def test_tol_can_tighten_a_check(self, tmp_path):
        scn = _write(tmp_path / "kern.scn", KERNEL_SCENARIO)
        assert main(["run", str(scn), "--out", str(tmp_path / "o1"), "--no-plots"]) == 0
        assert main(["run", str(scn), "--out", str(tmp_path / "o2"), "--no-plots", "--tol", "1e-12"]) == 1

    def test_constant_actuator_disturbance_certifies(self, tmp_path, capsys):
        # d(0) != 0: the loop constants must still come from admissible runs.
        scn = _write(tmp_path / "const_d.scn", CONSTANT_DISTURBANCE_LOOP)
        assert main(["run", str(scn), "--out", str(tmp_path / "out"), "--no-plots"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("const_d,backstepping_loop,true,")

    def test_raising_kind_prints_minus_inf_and_writes_no_trajectory(self, tmp_path, capsys):
        scn = _write(tmp_path / "bad_sigma.scn", RAISING_CHECK)
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        assert ",false,-inf," in capsys.readouterr().out.splitlines()[1]
        assert not (tmp_path / "out" / "bad_sigma" / "trajectory.csv").exists()

    def test_kernel_plot_follows_logy(self, tmp_path):
        # KERNEL_SCENARIO sets no logy, so the default log scale applies.
        scn = _write(tmp_path / "kern.scn", KERNEL_SCENARIO)
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 0
        assert "log10(feedback kernel)" in (tmp_path / "out" / "kern" / "plot.svg").read_text()


class TestSuiteCommand:
    def test_empty_directory_exit_two(self, tmp_path):
        assert main(["suite", str(tmp_path), "--out", str(tmp_path / "out")]) == 2

    def test_failure_does_not_stop_batch(self, tmp_path, capsys):
        _write(tmp_path / "a_ok.scn", FAST_SCENARIO.format(name="a_ok"))
        _write(
            tmp_path / "b_fail.scn",
            FAST_SCENARIO.format(name="b_fail").replace(
                "decay_rate = 9.869604401089358", "decay_rate = 20.0"
            ),
        )
        code = main(["suite", str(tmp_path), "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3  # header + both scenarios
        assert out[1].startswith("a_ok,simulate,true,")
        assert out[2].startswith("b_fail,simulate,false,")

    def test_zero_decay_rate_fails_only_its_file(self, tmp_path, capsys):
        _write(tmp_path / "a_zero.scn", FAST_SCENARIO.format(name="a_zero").replace(
            "decay_rate = 9.869604401089358", "decay_rate = 0"
        ))
        _write(tmp_path / "b_ok.scn", FAST_SCENARIO.format(name="b_ok"))
        code = main(["suite", str(tmp_path), "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("a_zero,?,false,-inf,")
        assert out[2].startswith("b_ok,simulate,true,")

    def test_parse_error_in_suite_marks_failure(self, tmp_path):
        _write(tmp_path / "a_ok.scn", FAST_SCENARIO.format(name="a_ok"))
        _write(tmp_path / "z_bad.scn", "[scenario]\nname = z\nkind = nope\n")
        assert main(["suite", str(tmp_path), "--out", str(tmp_path / "out"), "--no-plots"]) == 1
