import csv
import hashlib
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import PINNED_BLAS, fresh_python
from iss_parabolic import (
    Grid1D,
    MonotonicityLossError,
    ScenarioError,
    SynthesisError,
    backstepping,
    runner,
    scenarios,
    solver,
)
from iss_parabolic.cli import main
from iss_parabolic.monotone import DEFAULT_ORDERING_TOL, constant_reduction_experiment
from iss_parabolic.runner import run_scenario, run_suite
from iss_parabolic.scenarios import (
    KIND_KEYS,
    SELECTORS,
    make_initial,
    make_reaction,
    make_signal,
    parse_scenario,
    parse_selector,
)

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

# Parses, then raises at run time: the cubic reaction overflows at step 6 of 50.
RAISING_RUN = """
[scenario]
name = blow_up
kind = simulate

[grid]
n_interior = 15
dt = 1e-3
t_final = 0.05

[problem]
a = 1.0
reaction = cubic
initial = constant(100.0)
d0 = constant(100.0)
d1 = constant(100.0)
"""

CORE_SEED7_DIGESTS = {
    "backstep_closed": {
        "report.csv": "f24ec02eb68f4432d05a1700a8f1c1b7288039a756f4fecfb258e371e5d331ba",
        "trajectory.npy": "b0cdca2f7b6e2c0566851009c488f6ce20278820197962d71bdf40cb9d5a80db",
        "x_trajectory.npy": "60a1df6c47a0eb5f6f95e47417c4ace2e4d0dc9fa02065f8f72dcbb7055f7ffc",
    },
    "backstep_disturbed": {
        "report.csv": "016cf906de0a9359f328633cde9962ae71f44aa1ca861e166ac93402285fef65",
        "summary.csv": "0fc5525db7dacd9dc5a707d1d9c57703f4fa71817f2d65438fa8fbfe028913f2",
        "trajectory.npy": "dbac5378af0071204f505cfa30b1f1751f0ebab7be1724bdbfc6cc29748d864f",
        "x_trajectory.npy": "7f979f27937afc2be902ed981496fca7c3f5b883155d46f20ee7251f0d113fc3",
    },
    "backstep_open": {
        "report.csv": "c7e3a051fa585bde59c5464fd70fee14a6f64c77f878e91bb7a22a35d82e08a1",
        "trajectory.npy": "4112f5756eb5c7331dcc83c7dff2c8ff7d5de5858220e34e4d1891c5ef6cd913",
    },
    "eigen_decay": {
        "report.csv": "feb0aad00ce533dbb0fb6ce55ce8deba198c614f8b4733e012f8419fe54127fc",
        "trajectory.npy": "da22a2c5ca660385787ea8ee2a3bf761dd61e42742dcc4b1d7932616b0b85ac0",
    },
    "kernel_a1k10": {
        "kernel.csv": "18a17e4de30f053db4b63c0b81e8c70c493e83a449453589613bd24724da6c7e",
        "report.csv": "e9fd5701f6de5bb0c80c05fb4e2c6908b5573c9a5e79f073c7423daba46555ed",
    },
    "l2_random_a": {
        "report.csv": "8dbe4edded0ea501d7ab0734cc6e7515107d9c5b7490a0c4e031472aa2a91b1f",
        "summary.csv": "b61769f79d447673584cad13f3d74576aaee9cae8c4104cf184acb008eb4177c",
        "trajectory.npy": "eb59743e7740194fc5db75fb17cbd5a1b30ad526e6db567ec9b5dbf7c8f62c80",
    },
    "l2_random_b": {
        "report.csv": "3a7c9aefe0e7042dba0d40d19950201a0284848337c1e13d12d65c57efb56382",
        "summary.csv": "b61769f79d447673584cad13f3d74576aaee9cae8c4104cf184acb008eb4177c",
        "trajectory.npy": "be0551160a65948e622bc17b66cf97895364998e42c2e0f137983de25757bdcb",
    },
    "lyapunov_p3": {
        "report.csv": "7c3d6c14c6eb8bc6b8d0a09255cbc901f02bec87ed75aa5319a1bf000c4dc862",
        "trajectory.npy": "3d204c7a8b5a665c5cbbf27df0d7b0600b36d339a07ad00f148b50cfc5349a07",
    },
    "lyapunov_p4": {
        "report.csv": "4b2ed230f490aa02760a7dc4b279213c64ee4c2ca71a17f071b59e150963fdca",
        "trajectory.npy": "3d204c7a8b5a665c5cbbf27df0d7b0600b36d339a07ad00f148b50cfc5349a07",
    },
    "lyapunov_p8": {
        "report.csv": "8b669b5f53e72f2a7204ba56779ea930a25cba1c29564c76d293cbb986c7edc2",
        "trajectory.npy": "3d204c7a8b5a665c5cbbf27df0d7b0600b36d339a07ad00f148b50cfc5349a07",
    },
    "sandwich_cubic": {
        "report.csv": "4557edd480fd6a2fc15373b5a1b34ae1491c1af8c733ad1febab7dc1efe02650",
        "trajectory.npy": "726ce5849d6c292c3989acebe8f82aef2d9c637d668f8fb88fee400324bfe58a",
    },
    "sandwich_heat": {
        "report.csv": "45c251dd8cca701124c6f8b34618365d0a903234d0e5bd3a4cb2cc8795f5fc57",
        "trajectory.npy": "82bf6b2ba69f5f87b09144def502344b21c5cccf24931add77f31cb8f4c3660d",
    },
    "weighted_l1_steady": {
        "report.csv": "17b2053c8d11032dbe9242c401a8d23fe8fb25276e0dde76bb49376259d9432b",
        "summary.csv": "3f43b05ac39536cc97e520640882d433f48e9669257c34755a3e1f9b035c3404",
        "trajectory.npy": "f7f0d4d3589f6e956d870b804db8b93a243db134499999c9a5d4745fdcb8b125",
    },
    "weighted_sup_decay": {
        "report.csv": "fe6373c5a03c8ccb26a47750295101ec6bebe8c056d73773768bab7d81b64625",
        "summary.csv": "57f8c422b0333968c803c0e011c2555212bce2bda22096ce5db193cb86b2d222",
        "trajectory.npy": "f772faf9046fc9b0854f9c2914f574b928bdccb4d8006b2e439b803af62240b4",
    },
}

# The sha256 of each trajectory of that run in the former t,z,value CSV form: a row per time of grid.times()
# and node of grid.nodes, every number "%.17g".  The .npy files must hold the very doubles those CSVs held.
TRAJECTORY_CSV_DIGESTS = {
    "backstep_closed/trajectory.npy": "5394f9391fba95972a8b19284df3acb8d2098a11c5fb43df8b56cfe377009aff",
    "backstep_closed/x_trajectory.npy": "7486516efd52dead5d4218c223ceaf491d0733b5f96d99abd43bd304f3c3be19",
    "backstep_disturbed/trajectory.npy": "83eb361d03298ede55f5558c18046649b95e4dc6ac54f1d0ef1f1d5d0ac73bdf",
    "backstep_disturbed/x_trajectory.npy": "f3798a05054a9985f4b2911375e6639cea6a307b2ca729b4767b073d52cfd3ab",
    "backstep_open/trajectory.npy": "b902f9031480c1757c7e11fd6f89fef1a78bf5a774f15b23501a0c2d46bffa76",
    "eigen_decay/trajectory.npy": "b743ff4b1b8abe3c79227502eeeddafad67bebea8b92e8eb0fe056db270e900c",
    "l2_random_a/trajectory.npy": "0d22bf25f36159a706cfbd06ed9b7ddbaa08d436c39a059dd23a1c7e3c9d805e",
    "l2_random_b/trajectory.npy": "378ca111f5c69295d016d523e78dad218fc4e21ecb23dbf3f15761c2c65e5460",
    "lyapunov_p3/trajectory.npy": "7b1bce74344948e7399ed639caeb804fd18f709cc47739fadb951d61f24a17f5",
    "lyapunov_p4/trajectory.npy": "7b1bce74344948e7399ed639caeb804fd18f709cc47739fadb951d61f24a17f5",
    "lyapunov_p8/trajectory.npy": "7b1bce74344948e7399ed639caeb804fd18f709cc47739fadb951d61f24a17f5",
    "sandwich_cubic/trajectory.npy": "0893d4737cad4e32920645d63e69f42a154f75c11dea97bc0cb6b508b0502c48",
    "sandwich_heat/trajectory.npy": "e27d0951995dcac4edd45a3ea697718b906f04deb7703995f82f14847acb4b40",
    "weighted_l1_steady/trajectory.npy": "76dbccdd4e427d98ef959c25725f081aaf0fb4d860184eaba44ce72b2c24a4b3",
    "weighted_sup_decay/trajectory.npy": "09c4be92d58ecbe07846cd7590c39e64bc207d5f3fd271d261f7702e8e468ae1",
}

_DRAWS = np.random.default_rng(0).uniform(-1.0, 1.0, 3)

# One case per catalog entry: the selector and what it must build on
# CATALOG_GRID (a reaction at w, an initial profile at z with boundary
# values 0.2 and -0.4, a signal at the grid times).
CATALOG_CASES = [
    ("reaction", "zero", lambda w: 0.0 * w),
    ("reaction", "linear(-2.5)", lambda w: -2.5 * w),
    ("reaction", "cubic", lambda w: w - w**3),
    ("initial", "zero", lambda z: 0.0 * z),
    ("initial", "constant(0.5)", lambda z: 0.5 + 0.0 * z),
    ("initial", "sin_pi", lambda z: np.sin(np.pi * z)),
    ("initial", "mode(2.0)", lambda z: np.sin(2.0 * np.pi * z)),
    ("initial", "ramp", lambda z: 0.2 * (1.0 - z) - 0.4 * z),
    ("initial", "random_smooth(3, 0.7)", lambda z: 0.2 * (1.0 - z) - 0.4 * z + sum(
        0.7 * _DRAWS[j - 1] / j**2 * np.sin(j * np.pi * z) for j in (1, 2, 3))),
    ("signal", "zero", lambda t: 0.0 * t),
    ("signal", "constant(0.3)", lambda t: 0.3 + 0.0 * t),
    ("signal", "step(0.4, 0.05)", lambda t: np.where(t >= 0.05, 0.4, 0.0)),
    ("signal", "sinusoid(0.3, 5.0)", lambda t: 0.3 * np.sin(5.0 * t)),
    ("signal", "file(sig.csv)", lambda t: 5.0 * t),
]
CATALOG_GRID = Grid1D(n_interior=15, dt=0.01, t_final=0.1)

KIND_FILE = """
[scenario]
name = x
kind = {kind}

[grid]
n_interior = 15
dt = 1e-3
t_final = 0.05
"""

# A valid value for each of the 14 keys some kinds read and others do not.
VALID = {
    "k_reaction": "5.0", "reaction": "cubic", "initial": "sin_pi", "d0": "zero", "d1": "zero", "estimate": "l2",
    "p": "3", "sigma": "1.0", "theta": "0.5", "tol": "0.01", "epsilon": "0.05", "decay_rate": "1.0",
    "gain_override": "0.5", "mode": "closed",
}
KEY_SECTION = {key: section for section, parsers in scenarios._SECTION_KEYS.items() for key in parsers}

# A key whose setting picks another variant of the same kind selects that
# entry, so it is not outside the kind's keys.
_SWITCHES = {(entry.split()[0], key) for entry in KIND_KEYS for key in re.findall(r"\((\w+)", entry)}
UNREAD_CASES = [(entry, key) for entry, keys in KIND_KEYS.items() for key in VALID
                if key not in keys.split() and (entry.split()[0], key) not in _SWITCHES]


# An edit to a shipped file that the owner of a rule refuses when the file is read: the file, the
# text replaced, its replacement, the key blamed and the owner's wording.
DOMAIN_CASES = [
    ("lyapunov_p3", "p = 3", "p = 1.5", "check.p", "needs p in (2, inf)"),
    ("lyapunov_p3", "p = 3", "p = 2", "check.p", "needs p in (2, inf)"),
    ("lyapunov_p3", "p = 3", "p = inf", "check.p", "needs p in (2, inf)"),
    ("lyapunov_p3", "p = 3", "", "check.p", "needs p in (2, inf)"),  # the default p = 2
    ("weighted_sup_decay", "sigma = 4.9348", "sigma = 20.0", "check.sigma", "need 0 < sigma < a pi^2"),
    # just above a pi^2
    ("weighted_sup_decay", "sigma = 4.9348", "sigma = 9.8697", "check.sigma", "need 0 < sigma < a pi^2"),
    # pi - sqrt(sigma / a) = 0.9202
    ("weighted_sup_decay", "theta = 0.45", "theta = 1.0", "check.theta", "theta + phi < pi"),
    # the default sigma
    ("weighted_sup_decay", "sigma = 4.9348\ntheta = 0.45", "theta = 0.93", "check.theta", "theta + phi < pi"),
    # the largest doubles below pi - sqrt(sigma / a) and a pi^2: the weight is undefined in rounding
    ("weighted_sup_decay", "theta = 0.45", "theta = 0.920151679807235", "check.theta", "theta + phi < pi"),
    ("weighted_sup_decay", "sigma = 4.9348\ntheta = 0.45", "sigma = 9.869604401089356", "check.sigma",
     "theta + phi < pi"),
    # solver.check_diffusion owns a; it is asked first, so a bad a is not blamed on sigma, which reads it
    ("eigen_decay", "a = 1.0", "a = inf", "problem.a", "diffusion coefficient must be positive and finite, got inf"),
    ("weighted_sup_decay", "a = 1.0", "a = nan", "problem.a",
     "diffusion coefficient must be positive and finite, got nan"),
    ("lyapunov_p3", "d0 = zero", "d0 = step(0.3, 0.05)", "problem.d0", "needs zero boundary data"),
    ("backstep_closed", "initial = sin_pi", "initial = constant(0.5)", "problem.initial", "must vanish at z = 1"),
    ("backstep_closed", "dt = 2e-4", "dt = 0.1", "grid.dt", "dt * lipschitz_k < 1"),
    ("eigen_decay", "d0 = zero", "d0 = constant(1.0)", "problem.initial", "disagree at t=0"),
    ("backstep_disturbed", "d0 = step(0.5, 0.05)", "d0 = file(short.csv)", "problem.d0", "outside its table"),
    ("backstep_disturbed", "d0 = step(0.5, 0.05)", "d0 = file(absent.csv)", "problem.d0", "cannot read signal file"),
    ("backstep_disturbed", "d0 = step(0.5, 0.05)", "d0 = file(words.csv)", "problem.d0", "cannot parse signal file"),
    ("backstep_disturbed", "d0 = step(0.5, 0.05)", "d0 = file(wide.csv)", "problem.d0", "must have two columns"),
    # dt * k = 1e-4 * 20000 = 2 breaks the solver's step restriction
    ("eigen_decay", "reaction = zero", "reaction = linear(20000.0)", "grid.dt", "dt * lipschitz_k < 1"),
]


# A scenario file refused as a whole or for one value before anything runs: the case id, the file name, its
# text (None: no such file) and the wording of the refusal.
FILE_CASES = [
    ("missing", "x.scn", None, "cannot read scenario file"),
    ("malformed", "x.scn", "[scenario\nkind = simulate\n", "cannot parse scenario file"),
    ("section", "x.scn", FAST_SCENARIO.format(name="x") + "\n[extra]\nkey = 1\n", "unknown section [extra]"),
    ("logy", "x.scn", FAST_SCENARIO.format(name="x") + "logy = maybe\n", "check.logy: 'maybe' (expected a boolean)"),
    ("name..", "x.scn", FAST_SCENARIO.format(name=".."), "scenario name '..' must be filesystem-safe"),
    ("name.", "x.scn", FAST_SCENARIO.format(name="."), "scenario name '.' must be filesystem-safe"),
    ("stem.", "..scn", FAST_SCENARIO.format(name="x").replace("name = x\n", ""), "name '.' must be filesystem-safe"),
    ("grid", "x.scn", FAST_SCENARIO.format(name="x").replace("dt = 2e-4\nt_final = 0.2", "dt = 1e-300\nt_final = 1"),
     "bad [grid]: a history of (n_steps + 1) x n_nodes doubles exceeds numpy's largest array"),
]


def _edited(directory: Path, shipped: str, old: str, new: str) -> Path:
    """The shipped core file with ``old`` replaced by ``new``, written to ``directory`` beside three signal
    tables: ``short.csv`` ends at t = 0.01, ``words.csv`` holds a word and ``wide.csv`` three columns."""
    text = (SUITES / "core" / f"{shipped}.scn").read_text()
    assert old in text
    _write(directory / "short.csv", "t,value\n0,0\n0.01,0.2\n")
    _write(directory / "words.csv", "t,value\n0,zero\n1,0.2\n")
    _write(directory / "wide.csv", "t,value,more\n0,0,0\n1,0.2,0\n")
    return _write(directory / f"{shipped}.scn", text.replace(old, new))


def _entry_id(entry: str) -> str:
    return entry.replace(" (", ":").replace(")", "").replace(" = ", "=").replace(" ", "_")


def _kind_file(path: Path, entry: str, keys) -> Path:
    """A scenario of the entry's kind and variant that sets each of ``keys``."""
    kind, _, variant = entry.partition(" (")
    settings = dict(re.findall(r"(\w+) = (\w+)", variant))
    sections = {"problem": ["a = 1.0"], "check": ["logy = false"], "loop": []}
    for key in keys:
        sections[KEY_SECTION[key]].append(f"{key} = {settings.get(key, VALID[key])}")
    body = "".join(f"\n[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items() if lines)
    return _write(path, KIND_FILE.format(kind=kind) + body)


class TestScenarioParsing:
    def test_selector_forms(self):
        assert parse_selector("zero", "signal") == ("zero", ())
        assert parse_selector("step(0.5, 0.05)", "signal") == ("step", (0.5, 0.05))
        assert parse_selector(" Mode( 3.0 ) ", "initial") == ("mode", (3,))
        with pytest.raises(ValueError):
            parse_selector("1bad(", "signal")

    @pytest.mark.parametrize(
        "line",
        [
            "d0 = sinusiod(0.3, 5.0)", "d0 = zero(5)", "initial = sin_pi(3)", "reaction = cubic(1)",
            "d0 = step(0.3, nan)", "d1 = constant(inf)", "initial = mode(2.5)", "initial = random_smooth(0, 1)",
            "reaction = linear()", "initial = mode(inf)", "d1 = file()", "d0 = step(0.3 0.05)", "reaction = (1)",
        ],
    )
    def test_bad_selector_rejected_before_anything_runs(self, tmp_path, line, capsys):
        key = line.split(" = ")[0]
        old = "initial = sin_pi" if key == "initial" else "a = 1.0"
        new = line if key == "initial" else f"a = 1.0\n{line}"
        scn = _write(tmp_path / "bad.scn", FAST_SCENARIO.format(name="x").replace(old, new))
        with pytest.raises(ScenarioError, match=rf"problem\.{key}: "):
            parse_scenario(scn)
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
        assert f"problem.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "x").exists()

    @pytest.mark.parametrize("catalog,text,expected", CATALOG_CASES, ids=[f"{c}-{t}" for c, t, _ in CATALOG_CASES])
    def test_every_catalog_entry_builds(self, tmp_path, catalog, text, expected):
        grid = CATALOG_GRID
        (tmp_path / "sig.csv").write_text("t,value\n0.0,0.0\n0.1,0.5\n")
        selector = parse_selector(text, catalog)
        if catalog == "reaction":
            w = np.linspace(-1.5, 1.5, grid.n_nodes)
            reaction = make_reaction(selector)
            built = 0.0 * w if reaction is None else reaction(grid.nodes, w, None)
            assert (reaction is None) == (selector[0] == "zero")
            assert reaction is None or (reaction.lipschitz_k, reaction.uses_gradient) == (
                {"linear": 2.5, "cubic": 1.0}[selector[0]], False)
            assert built == pytest.approx(expected(w), abs=1e-15)
        elif catalog == "initial":
            built = make_initial(selector, grid, np.random.default_rng(0), 0.2, -0.4)
            assert built.values == pytest.approx(expected(grid.nodes), abs=1e-15)
        else:
            built = make_signal(selector, grid, tmp_path)
            assert built(grid.times()) == pytest.approx(expected(grid.times()), abs=1e-15)

    def test_catalog_cases_cover_the_table(self):
        covered = {(catalog, parse_selector(text, catalog)[0]) for catalog, text, _ in CATALOG_CASES}
        assert covered == {(catalog, name) for catalog, entries in SELECTORS.items() for name in entries}

    def test_docstring_catalog_matches_table(self):
        listed = {
            catalog: {re.match(r"\w+", entry.strip()).group(): entry.count(",") + ("(" in entry)
                      for entry in entries.split("|")}
            for catalog, entries in re.findall(r"^- (reaction|initial|signal)\b[^:]*: (.+)$", scenarios.__doc__, re.M)
        }
        assert listed == {catalog: {name: len(args) for name, args in entries.items()}
                          for catalog, entries in SELECTORS.items()}

    @pytest.mark.parametrize("entry", KIND_KEYS, ids=_entry_id)
    def test_every_key_of_an_entry_parses(self, tmp_path, entry):
        scn = parse_scenario(_kind_file(tmp_path / "x.scn", entry, KIND_KEYS[entry].split()))
        assert scn.kind == entry.split()[0]
        for key, value in re.findall(r"(\w+) = (\w+)", entry):
            assert getattr(scn, key) == value

    @pytest.mark.parametrize("entry,key", UNREAD_CASES, ids=[f"{_entry_id(e)}-{k}" for e, k in UNREAD_CASES])
    def test_key_outside_its_kind_rejected(self, tmp_path, capsys, entry, key):
        scn = _kind_file(tmp_path / "x.scn", entry, [*KIND_KEYS[entry].split(), key])
        message = f"kind {entry} does not read {KEY_SECTION[key]}.{key}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(scn)
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
        assert f".{key}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "x").exists()

    def test_unread_cases_cover_every_kind(self):
        # 14 keys per entry, less its own keys and a key picking another variant
        assert set(VALID) == {key for key, section in KEY_SECTION.items()
                              if section in ("problem", "check", "loop") and key not in ("a", "logy")}
        assert {entry for entry, _ in UNREAD_CASES} == set(KIND_KEYS)
        assert len(UNREAD_CASES) == sum(14 - len(keys.split()) for keys in KIND_KEYS.values()) - 1

    def test_docstring_kind_catalog_matches_table(self):
        listed = {
            entry: keys.split()
            for entry, keys in re.findall(r"^- (\w+(?: \([^)]*\))?): (.+)$", scenarios.__doc__, re.M)
            if entry.split()[0] in scenarios.KINDS
        }
        assert listed == {entry: keys.split() for entry, keys in KIND_KEYS.items()}

    def test_every_kind_has_a_runner(self):
        # a kind without one would escape run_scenario as a KeyError traceback
        assert set(runner._DISPATCH) == set(scenarios.KINDS)

    def test_tampered_gain_under_l2_rejected(self, tmp_path, capsys):
        # l2 reads no gain_override, so the tampered gain would go unchecked.
        text = (SUITES / "negative" / "tampered_gain.scn").read_text()
        scn = _write(tmp_path / "tampered_gain.scn", text.replace("estimate = weighted_l1", "estimate = l2"))
        assert main(["run", str(scn), "--out", str(tmp_path / "out"), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "check.gain_override" in err

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
        [
            "decay_rate = 0", "decay_rate = -1", "decay_rate = inf", "decay_rate = nan", "p = 0.5", "p = nan",
            "seed = -1", "tol = 0", "tol = -1", "tol = nan", "tol = 1", "tol = 1.5", "gain_override = 0",
            "gain_override = nan", "epsilon = 0", "epsilon = -1", "epsilon = nan", "a = 0", "a = nan",
            "k_reaction = nan", "k_reaction = inf", "sigma = nan", "theta = -1",
        ],
    )
    def test_out_of_domain_value_rejected(self, tmp_path, line):
        key = line.split(" = ")[0]
        # each bad line replaces a line of the section its key belongs to
        old = {"seed": "seed = 9", "a": "a = 1.0", "k_reaction": "a = 1.0"}.get(key, "decay_rate = 9.869604401089358")
        text = FAST_SCENARIO.format(name="x").replace(old, line)
        with pytest.raises(ScenarioError, match=rf"\.{key}: "):
            parse_scenario(_write(tmp_path / "bad.scn", text))

    @pytest.mark.parametrize("value", ["0.5", "nan"])
    def test_norm_exponent_below_one_exits_2(self, tmp_path, capsys, value):
        # norms.check_exponent owns the p >= 1 rule; the file's p is judged by it when read
        text = FAST_SCENARIO.format(name="x").replace("decay_rate = 9.869604401089358", f"p = {value}")
        scn = _write(tmp_path / "bad.scn", text)
        assert main(["run", str(scn), "--out", str(tmp_path / "out"), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scn}: bad value for check.p: p must be >= 1 or inf, got {value}")
        assert not (tmp_path / "out" / "x").exists()

    @pytest.mark.parametrize("shipped,old,new,key,wording", DOMAIN_CASES, ids=["-".join(c[:3]) for c in DOMAIN_CASES])
    def test_kind_domain_rejected_before_anything_runs(self, tmp_path, capsys, shipped, old, new, key, wording):
        scn = _edited(tmp_path, shipped, old, new)
        with pytest.raises(ScenarioError, match=rf"bad value for {re.escape(key)}: .*{re.escape(wording)}"):
            parse_scenario(scn)
        assert main(["run", str(scn), "--out", str(tmp_path / "out"), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scn}: bad value for {key}: ") and wording in err
        assert not (tmp_path / "out" / shipped).exists()

    @pytest.mark.parametrize("file_name,text,wording", [c[1:] for c in FILE_CASES], ids=[c[0] for c in FILE_CASES])
    def test_unusable_file_rejected_before_anything_runs(self, tmp_path, capsys, file_name, text, wording):
        scn = tmp_path / file_name if text is None else _write(tmp_path / file_name, text)
        with pytest.raises(ScenarioError, match=re.escape(wording)):
            parse_scenario(scn)
        work = tmp_path / "work"
        assert main(["run", str(scn), "--out", str(work / "out"), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and wording in err
        assert [path.relative_to(work) for path in work.rglob("*")] == [Path("out")]

    def test_parsing_never_steps_or_synthesizes(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parsing stepped the solver or synthesized a kernel")

        owners = {"_march": solver._march, "solve_kernel": backstepping.solve_kernel}
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "iss_parabolic"]:
            for name, owner in owners.items():
                if getattr(module, name, None) is owner:
                    monkeypatch.setattr(module, name, refuse)
        for path in SUITES.glob("**/*.scn"):
            parse_scenario(path)
        for shipped, old, new, _, _ in DOMAIN_CASES:
            with pytest.raises(ScenarioError):
                parse_scenario(_edited(tmp_path, shipped, old, new))

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
        assert (out / "trajectory.npy").exists()
        assert (out / "report.csv").exists()
        assert (out / "plot.svg").exists()

    def test_tampered_gain_fixture_exit_one(self, tmp_path):
        code = main(["run", str(SUITES / "negative" / "tampered_gain.scn"), "--out", str(tmp_path)])
        assert code == 1

    def test_unit_tol_does_not_pass_tampered_gain(self, tmp_path, capsys):
        # A relative slack of 1 would pass any margin; the flag and the key refuse it before anything runs.
        shipped = SUITES / "negative" / "tampered_gain.scn"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(shipped), "--out", str(tmp_path / "out"), "--no-plots", "--tol", "1"])
        assert exc.value.code == 2
        assert "argument --tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        scn = _write(tmp_path / "tampered_gain.scn", shipped.read_text().replace("tol = 0.02", "tol = 1"))
        assert main(["run", str(scn), "--out", str(tmp_path / "out"), "--no-plots"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {scn}: bad value for check.tol: '1'")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "suite"])
    def test_unusable_out_root_exit_two(self, tmp_path, capsys, command):
        scn = _write(tmp_path / "ok.scn", FAST_SCENARIO.format(name="ok"))
        blocker = _write(tmp_path / "blocker", "not a directory")
        target = scn if command == "run" else tmp_path
        assert main([command, str(target), "--out", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot use output root")

    def test_file_in_place_of_scenario_directory_exit_two(self, tmp_path, capsys):
        scn = _write(tmp_path / "kern.scn", KERNEL_SCENARIO)
        (tmp_path / "out").mkdir()
        blocker = _write(tmp_path / "out" / "kern", "not a directory")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot use output directory") and str(blocker) in err

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

    def test_zero_tol_flag_exit_two(self, tmp_path):
        scn = _write(tmp_path / "kern.scn", KERNEL_SCENARIO)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(scn), "--out", str(tmp_path / "out"), "--tol", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "override,key",
        [({"tol": 0.0}, "check.tol"), ({"tol": float("nan")}, "check.tol"), ({"seed": -3}, "scenario.seed")],
        ids=["tol=0", "tol=nan", "seed=-3"],
    )
    def test_parse_scenario_refuses_bad_override(self, tmp_path, override, key):
        path = _write(tmp_path / "ok.scn", FAST_SCENARIO.format(name="ok"))
        with pytest.raises(ScenarioError, match=rf"bad value for {re.escape(key)}: "):
            parse_scenario(path, **override)
        assert [p.name for p in tmp_path.iterdir()] == ["ok.scn"]

    def test_seed_override_reaches_the_parse_time_asks(self, monkeypatch):
        # random_smooth initial data are built by _asks from the seed that will run, not the file's.
        seeds = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(scenarios.np.random, "default_rng", lambda seed: seeds.append(seed) or default_rng(seed))
        scn = parse_scenario(SUITES / "core" / "l2_random_a.scn", seed=77)
        assert scn.seed == 77 and seeds == [77]

    @pytest.mark.parametrize("name", [".", ".."])
    def test_run_scenario_refuses_unsafe_name(self, tmp_path, name):
        # A Scenario built in code skips the parser; the runner asks the same owner before it makes a directory.
        scn = parse_scenario(_write(tmp_path / "ok.scn", FAST_SCENARIO.format(name="ok")))
        with pytest.raises(ScenarioError, match="filesystem-safe"):
            run_scenario(replace(scn, name=name), tmp_path / "work" / "out")
        assert not (tmp_path / "work").exists()

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
        for artifact in ("trajectory.npy", "report.csv"):
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
        a = (tmp_path / "o1" / "rnd" / "trajectory.npy").read_bytes()
        b = (tmp_path / "o2" / "rnd" / "trajectory.npy").read_bytes()
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

    def test_closed_loop_image_is_not_held_through_the_auxiliary_runs(self, tmp_path):
        # The plant history, two auxiliary runs and their working arrays peak at 3.5 histories, the writes at 2.3
        # (the plant history and its image); an image read before the auxiliary runs would be held through them.
        scn = parse_scenario(SUITES / "core" / "backstep_disturbed.scn")
        run_scenario(scn, tmp_path, no_plots=True)  # warm: one-time allocations are not the run's
        tracemalloc.start()
        try:
            result = run_scenario(scn, tmp_path, no_plots=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 4 * len(scn.grid.times()) * scn.grid.n_nodes * 8

    def test_raising_kind_prints_minus_inf_and_writes_no_trajectory(self, tmp_path, capsys):
        scn = _write(tmp_path / "blow_up.scn", RAISING_RUN)
        # The march's finiteness test owns the verdict; numpy's overflow warning would report it a second time.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert ",false,-inf," in captured.out.splitlines()[1]
        assert captured.err == "FAIL blow_up [simulate]: step 6 of 50 produced non-finite values\n"
        assert not (tmp_path / "out" / "blow_up" / "trajectory.npy").exists()
        assert list((tmp_path / "out" / "blow_up").iterdir()) == []  # no artifact under any name

    def test_singular_transform_fails_the_scenario(self, tmp_path, capsys):
        # a = 1, k = -64, h = 1/16: diag(I + U)[0] = 1 + (h/2) k(0, 0) = 1 - (1/32)(64/2) is exactly 0.
        text = KERNEL_SCENARIO.replace("n_interior = 63", "n_interior = 15").replace("dt = 2e-4", "dt = 1e-3")
        scn = _write(tmp_path / "kern.scn", text.replace("k_reaction = 10.0", "k_reaction = -64"))
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("kern,kernel_synthesis,false,-inf,")
        assert captured.err == ("FAIL kern [kernel_synthesis]: the direct transform I + U is singular: "
                                "diagonal entry 0 is zero\n")

    def test_large_kernel_ends_on_a_check_margin(self, tmp_path, capsys):
        # k = 200 synthesizes (the stop rule's rounding floor ends the iteration), and the series oracle,
        # 1e-6 against a quadrature error of 5.9e-2 at n = 199, decides the FAIL.
        text = (SUITES / "core" / "kernel_a1k10.scn").read_text()
        scn = _write(tmp_path / "kern.scn", text.replace("k_reaction = 10.0", "k_reaction = 200.0"))
        assert main(["run", str(scn), "--out", str(tmp_path / "out"), "--no-plots"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL kernel_a1k10 [kernel_synthesis]: check failed with margin -")
        rows = (tmp_path / "out" / "kernel_a1k10" / "report.csv").read_text().splitlines()
        assert [(row.split(",")[0], row.split(",")[-1]) for row in rows[1:]] == [
            ("oracle_sup_diff", "false"), ("roundtrip_sup_err", "true")
        ]

    def test_raising_oracle_leaves_no_artifact(self, tmp_path, monkeypatch):
        # The kernel and its check table are computed before the oracle runs; neither may be written.
        def refuse(*args, **kwargs):
            raise SynthesisError("oracle refused")

        monkeypatch.setattr(backstepping, "kernel_series_reference", refuse)
        result = run_scenario(parse_scenario(_write(tmp_path / "kern.scn", KERNEL_SCENARIO)), tmp_path / "out")
        assert (result.passed, result.min_margin, result.message) == (False, -math.inf, "oracle refused")
        assert list((tmp_path / "out" / "kern").iterdir()) == []

    def test_kernel_plot_follows_logy(self, tmp_path):
        # KERNEL_SCENARIO sets no logy, so the default log scale applies.
        scn = _write(tmp_path / "kern.scn", KERNEL_SCENARIO)
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 0
        assert "log10(feedback kernel)" in (tmp_path / "out" / "kern" / "plot.svg").read_text()

    def test_zero_kernel_plot_falls_back_to_a_flat_linear_axis(self, tmp_path):
        # k_reaction = 0 gives a zero kernel row: the default log axis has no positive sample, and the
        # flat range is widened to one unit around 0, so every point sits at mid-height.
        text = (SUITES / "core" / "kernel_a1k10.scn").read_text()
        assert "k_reaction = 10.0" in text and "\n[check]\nlogy = false\n" in text
        text = text.replace("k_reaction = 10.0", "k_reaction = 0.0").replace("\n[check]\nlogy = false\n", "")
        scn = _write(tmp_path / "kernel_a1k10.scn", text)
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 0
        svg = (tmp_path / "out" / "kernel_a1k10" / "plot.svg").read_text()
        assert ">feedback kernel</text>" in svg and "log10(" not in svg
        (points,) = re.findall(r'points="([^"]*)"', svg)
        xy = np.array([[float(c) for c in point.split(",")] for point in points.split()])
        assert xy.shape == (201, 2) and np.isfinite(xy).all()
        assert set(xy[:, 1]) == {202.0}


# Each scenario's artifacts, as the README lists them: trajectory.npy, x_trajectory.npy for the closed loop,
# report.csv, summary.csv for estimate checks, kernel.csv for synthesis.
KIND_FILES = {
    "simulate": {"trajectory.npy", "report.csv"},
    "simulate (decay_rate given)": {"trajectory.npy", "report.csv"},
    "sandwich": {"trajectory.npy", "report.csv"},
    "iss_check (estimate = l2)": {"trajectory.npy", "report.csv", "summary.csv"},
    "iss_check (estimate = weighted_l1)": {"trajectory.npy", "report.csv", "summary.csv"},
    "iss_check (estimate = weighted_sup)": {"trajectory.npy", "report.csv", "summary.csv"},
    "lyapunov": {"trajectory.npy", "report.csv"},
    "kernel_synthesis": {"kernel.csv", "report.csv"},
    "backstepping_loop (mode = open)": {"trajectory.npy", "report.csv"},
    "backstepping_loop (mode = closed)": {"trajectory.npy", "x_trajectory.npy", "report.csv"},
    "backstepping_loop (mode = closed, disturbed)": {"trajectory.npy", "x_trajectory.npy", "report.csv",
                                                     "summary.csv"},
}


CUBIC_FLIP = """
[scenario]
name = cubic_flip
kind = sandwich
seed = 10

[grid]
n_interior = 49
dt = 0.05
t_final = 0.5

[problem]
a = 1.0
reaction = cubic
initial = random_smooth(4, 8.0)
d0 = zero
d1 = zero

[check]
epsilon = 0.1
"""


@pytest.mark.xfail(reason="ROADMAP item 1: the cubic leaves its monotone band unrefused; the run exits 1 with "
                          "'check failed with margin -0.00600976'")
def test_run_leaving_the_monotone_band_is_refused_not_a_sandwich_margin(tmp_path, capsys):
    # |w| reaches past sqrt(7) at dt = 0.05, where w + dt (w - w^3) decreases in w: the stepper must refuse
    # (MonotonicityLossError), and the CLI must report that refusal rather than a comparison counterexample.
    path = _write(tmp_path / "cubic_flip.scn", CUBIC_FLIP)
    scn = parse_scenario(path)
    with pytest.raises(MonotonicityLossError) as refused:
        constant_reduction_experiment(
            scenarios.build_problem(scn, np.random.default_rng(scn.seed)), scn.grid, scn.epsilon, DEFAULT_ORDERING_TOL,
        )
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--no-plots"]) == 1
    assert capsys.readouterr().err == f"FAIL cubic_flip [sandwich]: {refused.value}\n"


@pytest.mark.parametrize("entry", KIND_FILES, ids=_entry_id)
def test_kind_declares_its_artifacts_and_writes_nothing(tmp_path, monkeypatch, entry):
    readme = (SUITES.parent / "README.md").read_text()
    assert all(f"`{name}`" in readme for name in KIND_FILES[entry])
    table_entry = entry.replace(", disturbed", "")
    scn = parse_scenario(_kind_file(tmp_path / "x.scn", table_entry, KIND_KEYS[table_entry].split()))
    if entry != table_entry:
        scn = replace(scn, d0=("step", (0.3, 0.01)))
    monkeypatch.chdir(tmp_path)
    outcome = runner._DISPATCH[scn.kind](scn, np.random.default_rng(scn.seed))
    assert set(outcome.files) == KIND_FILES[entry]
    assert [path.name for path in tmp_path.iterdir()] == ["x.scn"]
    for name, (write, obj) in outcome.files.items():
        write(obj, tmp_path / name)
        if name.endswith(".csv"):
            assert (tmp_path / name).read_text().count("\n") >= 2  # a header and at least one row
            continue
        traj = obj.x_traj if name == "x_trajectory.npy" else obj
        saved = np.load(tmp_path / name, allow_pickle=False)
        assert saved.dtype == np.dtype("<f8") and saved.flags.c_contiguous
        assert saved.shape == (len(traj.times), traj.grid.n_nodes)
        assert saved.tobytes() == traj.data.tobytes()
        assert traj.times.tobytes() == traj.grid.times().tobytes()  # the rows the README names


def test_readme_artifact_paragraph_names_exactly_the_declared_files():
    # KIND_FILES is each kind's declaration (the test above); run_scenario adds plot.svg.
    assert {entry.replace(", disturbed", "") for entry in KIND_FILES} == set(KIND_KEYS)
    readme = " ".join((SUITES.parent / "README.md").read_text().split())
    paragraph = readme[readme.index("Each scenario writes, into") : readme.index("unless `--no-plots` is given")]
    named = re.findall(r"`(\w+\.(?:csv|npy|svg))`", paragraph)
    assert sorted(set(named)) == sorted(set().union(*KIND_FILES.values(), {"plot.svg"}))


@pytest.fixture(scope="module")
def core_seed7(tmp_path_factory) -> Path:
    """The artifacts of suites/core at --seed 7 --no-plots, written by a fresh interpreter at one BLAS thread."""
    out = tmp_path_factory.mktemp("core_seed7")
    fresh_python("-m", "iss_parabolic.cli", "suite", str(SUITES / "core"), "--out", str(out),
                 "--seed", "7", "--no-plots", env=PINNED_BLAS)
    return out


def _former_csv_digest(data: np.ndarray, grid: Grid1D) -> str:
    """The sha256 of a history as a t,z,value CSV: a row per time of grid.times() and node of grid.nodes,
    every number "%.17g"."""
    times = grid.times()
    assert data.shape == (times.size, grid.n_nodes)
    digest = hashlib.sha256(b"t,z,value\n")
    cells = [",%.17g,%%.17g\n" % z for z in grid.nodes.tolist()]  # a node's z, then a slot for its value
    for t, row in zip(times.tolist(), data.tolist()):
        t = "%.17g" % t
        digest.update(((t + t.join(cells)) % tuple(row)).encode())
    return digest.hexdigest()


class TestSuiteCommand:
    def test_empty_directory_exit_two(self, tmp_path, capsys):
        assert main(["suite", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: no scenario files (*.scn) found in {tmp_path}\n"

    def test_file_in_place_of_suite_directory_exit_two(self, tmp_path, capsys):
        scn = _write(tmp_path / "ok.scn", FAST_SCENARIO.format(name="ok"))
        assert main(["suite", str(scn), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {scn} is not a directory\n"
        assert list((tmp_path / "out").iterdir()) == []

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

    @pytest.mark.parametrize(
        "override,key", [({"tol": -1.0}, "check.tol"), ({"seed": -3}, "scenario.seed")], ids=["tol=-1", "seed=-3"]
    )
    def test_run_suite_refuses_bad_override(self, tmp_path, override, key):
        # The CLI refuses such flags through argparse; a library caller gets one failed row per file.
        for name in ("a_ok", "b_ok"):
            _write(tmp_path / f"{name}.scn", FAST_SCENARIO.format(name=name))
        results, code = run_suite(tmp_path, tmp_path / "out", **override)
        assert code == 1 and [r.name for r in results] == ["a_ok", "b_ok"]
        for result in results:
            assert not result.passed and f"bad value for {key}: " in result.message
        assert not (tmp_path / "out").exists()

    def test_core_artifacts_match_recorded_digests(self, core_seed7):
        # Digests of every artifact of suites/core at --seed 7 --no-plots
        # (numpy 2.4, scipy 1.17 and its bundled DYNAMIC_ARCH OpenBLAS,
        # x86-64), written by a fresh interpreter at one BLAS thread
        # (PINNED_BLAS).  The pin holds whatever threading the test run itself
        # has: OpenBLAS's threaded dtrmm rounds differently from its one-thread
        # path, and kernel_a1k10's round trip reads the difference.  Another
        # CPU type or BLAS may round differently.  A change that moves any of
        # them must say so and re-record them.  Last re-recorded when kernel
        # synthesis began sweeping the whole characteristic rectangle: the
        # kernels moved by at most ~1e-11, and with them kernel_a1k10's kernel.csv and
        # report.csv and every artifact of backstep_closed and
        # backstep_disturbed (backstep_open runs no feedback kernel).
        # One comparison of the whole map, and a failure names every file at once.
        written = {
            path.relative_to(core_seed7).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in core_seed7.rglob("*") if path.is_file()
        }
        recorded = {f"{name}/{artifact}": digest for name, digests in CORE_SEED7_DIGESTS.items()
                    for artifact, digest in digests.items()}
        moved = sorted(k for k in written.keys() | recorded.keys() if written.get(k) != recorded.get(k))
        assert written == recorded, f"moved, missing or extra: {', '.join(moved)}"

    def test_core_trajectories_hold_the_doubles_of_their_former_csv(self, core_seed7):
        # Files with the same bytes on the same grid are printed once.
        printed = {}
        for key in TRAJECTORY_CSV_DIGESTS:
            path = core_seed7 / key
            grid = parse_scenario(SUITES / "core" / f"{path.parent.name}.scn").grid
            same = (hashlib.sha256(path.read_bytes()).hexdigest(), grid)
            if same not in printed:
                printed[same] = _former_csv_digest(np.load(path, allow_pickle=False), grid)
            assert printed[same] == TRAJECTORY_CSV_DIGESTS[key], key

    def test_duplicate_name_fails_later_file_without_running(self, tmp_path, capsys):
        _write(tmp_path / "a_sim.scn", FAST_SCENARIO.format(name="same"))
        _write(tmp_path / "b_kern.scn", KERNEL_SCENARIO.replace("name = kern", "name = same"))
        assert main(["suite", str(tmp_path), "--out", str(tmp_path / "out"), "--no-plots"]) == 1
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[1].startswith("same,simulate,true,")
        assert rows[2].startswith("b_kern,?,false,-inf,")
        assert "a_sim.scn" in captured.err
        assert not (tmp_path / "out" / "same" / "kernel.csv").exists()

    def test_file_in_place_of_scenario_directory_fails_only_its_scenario(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        _write(suite / "kern.scn", KERNEL_SCENARIO)
        _write(suite / "ok.scn", FAST_SCENARIO.format(name="ok"))
        (tmp_path / "out").mkdir()
        blocker = _write(tmp_path / "out" / "kern", "not a directory")
        assert main(["suite", str(suite), "--out", str(tmp_path / "out"), "--no-plots"]) == 1
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[1].startswith("kern,?,false,-inf,")
        assert rows[2].startswith("ok,simulate,true,")
        assert captured.err.startswith("FAIL kern [?]: cannot use output directory") and str(blocker) in captured.err
        assert (tmp_path / "out" / "ok" / "report.csv").exists()

    def test_failed_check_named_on_stderr(self, tmp_path, capsys):
        assert main(["suite", str(SUITES / "negative"), "--out", str(tmp_path), "--no-plots"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("tampered_gain,iss_check,false,-0.685815,")
        assert captured.err == "FAIL tampered_gain [iss_check]: check failed with margin -0.685815\n"

    def test_tol_and_seed_flags_reach_every_scenario(self, tmp_path, capsys):
        # backstep_open and a simulate without decay_rate read no tol; they ignore --tol.
        suite = tmp_path / "suite"
        suite.mkdir()
        _write(suite / "kern.scn", KERNEL_SCENARIO)
        _write(suite / "rnd.scn", FAST_SCENARIO.format(name="rnd").replace(
            "initial = sin_pi", "initial = random_smooth(4, 0.8)").replace("decay_rate = 9.869604401089358", ""))
        _write(suite / "backstep_open.scn", (SUITES / "core" / "backstep_open.scn").read_text())
        flags = ["--no-plots", "--tol", "0.5", "--seed", "77"]
        assert main(["suite", str(suite), "--out", str(tmp_path / "suite_out"), *flags]) == 0
        assert [row.split(",")[2] for row in capsys.readouterr().out.splitlines()[1:]] == ["true"] * 3
        kernel_rows = (tmp_path / "suite_out" / "kern" / "report.csv").read_text().splitlines()
        assert kernel_rows[1].split(",")[::2] == ["oracle_sup_diff", "0.5"]
        assert main(["run", str(suite / "rnd.scn"), "--out", str(tmp_path / "run_out"), *flags]) == 0
        suite_traj, run_traj = (tmp_path / out / "rnd" / "trajectory.npy" for out in ("suite_out", "run_out"))
        assert suite_traj.read_bytes() == run_traj.read_bytes()

    def test_unparsed_file_row_quotes_its_name(self, tmp_path, capsys):
        # The stem is not a filesystem-safe scenario name, so the file fails to parse under its stem.
        _write(tmp_path / "a,b.scn", FAST_SCENARIO.format(name="x").replace("name = x\n", ""))
        assert main(["suite", str(tmp_path), "--out", str(tmp_path / "out"), "--no-plots"]) == 1
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(rows[0]) == len(rows[1]) == 5
        assert rows[1][0] == "a,b"

    def test_parse_error_in_suite_marks_failure(self, tmp_path):
        _write(tmp_path / "a_ok.scn", FAST_SCENARIO.format(name="a_ok"))
        _write(tmp_path / "z_bad.scn", "[scenario]\nname = z\nkind = nope\n")
        assert main(["suite", str(tmp_path), "--out", str(tmp_path / "out"), "--no-plots"]) == 1
