"""Scenario files: flat key=value sections describing one run each.

A scenario file has up to five sections; unknown keys are rejected so typos
fail loudly::

    [scenario]
    name = eigen_decay          # output directory name [file stem]
    kind = simulate             # simulate | sandwich | iss_check | lyapunov
                                # | kernel_synthesis | backstepping_loop
    seed = 42                   # drives every randomized input; >= 0

    [grid]
    n_interior = 199
    dt = 1e-4
    t_final = 0.3               # a whole number of steps dt

    [problem]
    a = 1.0
    k_reaction = 15.0           # backstepping_loop / kernel_synthesis only
    reaction = zero             # zero | linear(c) | cubic
    initial = sin_pi            # zero | constant(c) | sin_pi | mode(j)
                                # | ramp | random_smooth(modes, amp)
    d0 = zero                   # zero | constant(c) | step(c, t_on)
    d1 = zero                   # | sinusoid(amp, omega) | file(path)

    [check]                     # keys depend on kind, see the catalog below
    estimate = l2
    tol = 0.02

    [loop]                      # backstepping_loop only
    mode = closed               # open | closed

Check-key catalog.  ``tol`` is each kind's one check tolerance; when the
scenario omits it and ``--tol`` does not set it, the default in brackets
applies.  ``logy`` [true] picks the plot's y axis for every kind, and ``p``
[2], wherever a kind reads it, the L^p norm: p >= 1, ``inf`` allowed.

- simulate: ``p`` picks the norm; with ``decay_rate`` (> 0, finite) the
  fitted rate must match it to relative error ``tol`` [0.02], without it
  nothing is checked.
- sandwich: ``epsilon`` [0.05] widens the constant bracket; ``tol`` is the
  ordering slack [monotone.DEFAULT_ORDERING_TOL = 1e-10].
- iss_check: ``estimate`` [l2] | weighted_l1 | weighted_sup, ``tol`` its
  relative slack [0.02]; weighted_l1 reads ``gain_override``, weighted_sup
  reads ``sigma`` and ``theta`` [default_weighted_sup_params].
- lyapunov: ``p`` in (2, inf); ``tol`` is the certificate's relative slack
  [0.02].
- kernel_synthesis: ``tol`` bounds the sup distance to the series oracle
  [1e-6]; the inverse-kernel round trip on 20 random fields is held to 1e-8.
- backstepping_loop: ``p`` picks the norm.  ``mode = open`` requires
  tenfold norm growth (no tolerance); closed with ``d0 = zero`` the fitted
  rate must match a*pi^2 to relative error ``tol`` [0.05]; closed with a
  disturbance ``tol`` is the ISS certificate's relative slack [1e-6].

Selectors parse as ``name`` or ``name(arg, ...)``.  The reaction catalog
pairs each entry with the slope bound the solver's step restriction uses:
linear(c) has bound |c| (conservative: order preservation constrains the
negative slope), cubic is w - w^3 with unit bound on the working range.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, ScenarioError
from .grid import Field, Grid1D
from .solver import BoundarySignal, SemilinearProblem

KINDS = ("simulate", "sandwich", "iss_check", "lyapunov", "kernel_synthesis", "backstepping_loop")

_SELECTOR_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*(?:\((.*)\))?\s*$", re.IGNORECASE)


def parse_selector(text: str) -> tuple[str, list[str]]:
    m = _SELECTOR_RE.match(text)
    if not m:
        raise ScenarioError(f"malformed selector {text!r}")
    name = m.group(1).lower()
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2) else []
    return name, args


def _floats(args: list[str], count: int, what: str) -> list[float]:
    if len(args) != count:
        raise ScenarioError(f"{what} expects {count} argument(s), got {len(args)}")
    try:
        return [float(a) for a in args]
    except ValueError as exc:
        raise ScenarioError(f"{what}: non-numeric argument in {args}") from exc


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one scenario deterministically.

    Every default lives here; ``tol = None`` means the kind's own default.
    """

    name: str
    kind: str
    grid: Grid1D
    seed: int = 0
    a: float = 1.0
    k_reaction: float = 0.0
    reaction: str = "zero"
    initial: str = "zero"
    d0: str = "zero"
    d1: str = "zero"
    estimate: str = "l2"
    p: float = 2.0
    sigma: Optional[float] = None
    theta: Optional[float] = None
    tol: Optional[float] = None
    epsilon: float = 0.05
    decay_rate: Optional[float] = None
    gain_override: Optional[float] = None
    logy: bool = True
    mode: str = "closed"
    base_dir: Path = field(default_factory=Path)


def _choice(*allowed: str):
    def parse(raw: str) -> str:
        value = raw.strip().lower()
        if value not in allowed:
            raise ValueError(f"expected one of {allowed}")
        return value
    return parse


def nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def _positive(raw: str) -> float:
    value = float(raw)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"expected a finite number > 0, got {value}")
    return value


def _norm_exponent(raw: str) -> float:
    value = float(raw)
    if not value >= 1.0:
        raise ValueError(f"expected p >= 1 or inf, got {value}")
    return value


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError("expected a boolean") from None


# The only key table: section -> key -> parser.  The grid keys build the
# Grid1D; every other key is a Scenario field of the same name.
_SECTION_KEYS = {
    "scenario": {"name": str.strip, "kind": _choice(*KINDS), "seed": nonnegative_int},
    "grid": {"n_interior": int, "dt": float, "t_final": float},
    "problem": {"a": float, "k_reaction": float, "reaction": str, "initial": str, "d0": str, "d1": str},
    "check": {
        "estimate": _choice("weighted_l1", "l2", "weighted_sup"), "p": _norm_exponent, "sigma": float,
        "theta": float, "tol": float, "epsilon": float, "decay_rate": _positive,
        "gain_override": float, "logy": _boolean,
    },
    "loop": {"mode": _choice("open", "closed")},
}
_REQUIRED = {("scenario", "kind"), ("grid", "n_interior"), ("grid", "dt"), ("grid", "t_final")}


def parse_scenario(path) -> Scenario:
    """Parse one scenario file, rejecting unknown sections, keys, and values."""
    path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario file {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        unknown = set(cp[section]) - set(_SECTION_KEYS[section])
        if unknown:
            raise ScenarioError(f"{path}: unknown key(s) {sorted(unknown)} in [{section}]")

    values = {"name": path.stem, "base_dir": path.parent}
    grid = {}
    for section, parsers in _SECTION_KEYS.items():
        for key, parse in parsers.items():
            if not cp.has_option(section, key):
                if (section, key) in _REQUIRED:
                    raise ScenarioError(f"{path}: missing required key {section}.{key}")
                continue
            raw = cp.get(section, key)
            try:
                (grid if section == "grid" else values)[key] = parse(raw)
            except ValueError as exc:
                raise ScenarioError(f"{path}: bad value for {section}.{key}: {raw!r} ({exc})") from exc
    if not re.fullmatch(r"[A-Za-z0-9._-]+", values["name"]):
        raise ScenarioError(f"{path}: scenario name {values['name']!r} must be filesystem-safe")
    try:
        values["grid"] = Grid1D(**grid)
    except InvalidParameterError as exc:
        raise ScenarioError(f"{path}: bad [grid]: {exc}") from exc
    return Scenario(**values)


def make_reaction(selector: str):
    """Catalog lookup: returns (vectorized callable or None, slope bound)."""
    name, args = parse_selector(selector)
    if name == "zero":
        return None, 0.0
    if name == "linear":
        (c,) = _floats(args, 1, "linear reaction")
        return (lambda z, w, grad: c * w), abs(c)
    if name == "cubic":
        if args:
            raise ScenarioError("cubic reaction takes no arguments")
        return (lambda z, w, grad: w - w**3), 1.0
    raise ScenarioError(f"unknown reaction selector {selector!r}")


def make_signal(selector: str, grid: Grid1D, base_dir: Path) -> BoundarySignal:
    """Catalog lookup for boundary/actuator signals, sampled on grid times."""
    name, args = parse_selector(selector)
    times = grid.times()
    if name == "zero":
        return BoundarySignal.zero()
    if name == "constant":
        (c,) = _floats(args, 1, "constant signal")
        return BoundarySignal.constant(c)
    if name == "step":
        c, t_on = _floats(args, 2, "step signal")
        return BoundarySignal.sampled(times, np.where(times >= t_on, c, 0.0))
    if name == "sinusoid":
        amp, omega = _floats(args, 2, "sinusoid signal")
        return BoundarySignal.sampled(times, amp * np.sin(omega * times))
    if name == "file":
        # two-column CSV t,value with a header row; relative to the scenario file
        if len(args) != 1:
            raise ScenarioError("file signal expects one path argument")
        fpath = Path(args[0])
        if not fpath.is_absolute():
            fpath = base_dir / fpath
        try:
            table = np.loadtxt(fpath, delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:
            raise ScenarioError(f"cannot read signal file {fpath}: {exc}") from exc
        except ValueError as exc:
            raise ScenarioError(f"cannot parse signal file {fpath}: {exc}") from exc
        if table.shape[1] != 2:
            raise ScenarioError(f"signal file {fpath} must have two columns t,value")
        return BoundarySignal.sampled(table[:, 0], table[:, 1])
    raise ScenarioError(f"unknown signal selector {selector!r}")


def make_initial(selector: str, grid: Grid1D, rng: np.random.Generator, left0: float, right0: float) -> Field:
    """Catalog lookup for initial profiles.

    ``random_smooth`` anchors a linear ramp at the t = 0 boundary values so
    the pair (initial, signals) is always admissible; the deterministic
    profiles are used with matching boundary data.
    """
    name, args = parse_selector(selector)
    z = grid.nodes
    if name == "zero":
        return Field.zeros(grid)
    if name == "constant":
        (c,) = _floats(args, 1, "constant initial data")
        return Field.constant(grid, c)
    if name == "sin_pi":
        return Field(np.sin(np.pi * z), grid)
    if name == "mode":
        (j,) = _floats(args, 1, "mode initial data")
        if j < 1 or j != int(j):
            raise ScenarioError("mode index must be a positive integer")
        return Field(np.sin(int(j) * np.pi * z), grid)
    if name == "ramp":
        return Field(left0 * (1.0 - z) + right0 * z, grid)
    if name == "random_smooth":
        n_modes, amp = _floats(args, 2, "random_smooth initial data")
        if n_modes < 1 or n_modes != int(n_modes):
            raise ScenarioError("random_smooth mode count must be a positive integer")
        profile = left0 * (1.0 - z) + right0 * z
        for j in range(1, int(n_modes) + 1):
            profile = profile + amp * rng.uniform(-1.0, 1.0) / j**2 * np.sin(j * np.pi * z)
        return Field(profile, grid)
    raise ScenarioError(f"unknown initial-data selector {selector!r}")


def build_problem(scenario: Scenario, rng: np.random.Generator) -> SemilinearProblem:
    """Assemble the semilinear problem a scenario describes."""
    reaction, slope = make_reaction(scenario.reaction)
    d0 = make_signal(scenario.d0, scenario.grid, scenario.base_dir)
    d1 = make_signal(scenario.d1, scenario.grid, scenario.base_dir)
    initial = make_initial(scenario.initial, scenario.grid, rng, float(d0(0.0)), float(d1(0.0)))
    return SemilinearProblem(
        a=scenario.a,
        initial=initial,
        boundary_left=d0,
        boundary_right=d1,
        reaction=reaction,
        lipschitz_k=slope,
    )


def default_weighted_sup_params(a: float, sigma: Optional[float], theta: Optional[float]) -> tuple[float, float]:
    """Fill in (sigma, theta) for the weighted-sup estimate when omitted."""
    if sigma is None:
        sigma = 0.5 * a * math.pi**2
    phi = math.sqrt(sigma / a)
    if theta is None:
        theta = 0.5 * (math.pi - phi)
    return sigma, theta
