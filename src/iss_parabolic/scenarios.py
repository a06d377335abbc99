"""Scenario files: flat key=value sections describing one run each.

A scenario file has up to five sections; unknown keys, keys the kind does
not read and values outside the domains below are rejected, so typos fail
loudly::

    [scenario]
    name = eigen_decay          # output directory name [file stem]:
                                # [A-Za-z0-9._-]+, not . or ..
    kind = simulate             # simulate | sandwich | iss_check | lyapunov
                                # | kernel_synthesis | backstepping_loop
    seed = 42                   # drives every randomized input; >= 0

    [grid]
    n_interior = 199
    dt = 1e-4
    t_final = 0.3               # a whole number of steps dt

    [problem]
    a = 1.0                     # finite, > 0
    k_reaction = 15.0           # finite; backstepping_loop / kernel_synthesis only
    reaction = zero             # selectors from the catalog below
    initial = sin_pi
    d0 = zero
    d1 = zero

    [check]                     # keys depend on kind, see the catalog below
    estimate = l2
    tol = 0.02

    [loop]                      # backstepping_loop only
    mode = closed               # open | closed

Kind-key catalog (``KIND_KEYS``).  Besides the [scenario] and [grid] keys,
``a`` and ``logy`` [true], a kind, or the variant a setting picks, reads
only these keys; any other is a configuration error.  ``tol``, in (0, 1), is
its one check tolerance, [default] unless the file or ``--tol`` sets it.

- simulate: reaction initial d0 d1 p
- simulate (decay_rate given): reaction initial d0 d1 p decay_rate tol
- sandwich: reaction initial d0 d1 epsilon tol
- iss_check (estimate = l2): initial d0 d1 estimate tol
- iss_check (estimate = weighted_l1): initial d0 d1 estimate tol gain_override
- iss_check (estimate = weighted_sup): initial d0 d1 estimate tol sigma theta
- lyapunov: initial d0 d1 p tol
- kernel_synthesis: k_reaction tol
- backstepping_loop (mode = open): k_reaction mode p
- backstepping_loop (mode = closed): k_reaction mode p initial d0 tol

``p`` [2]: L^p exponent >= 1, ``inf`` allowed (lyapunov: in (2, inf)).
simulate: the fitted decay rate must match ``decay_rate`` (> 0, finite) to
relative error tol [0.02].  sandwich: ``epsilon`` (> 0, finite) [0.05]
widens the constant bracket; tol is the ordering slack [1e-10].  iss_check
and lyapunov: tol is the relative slack [0.02]; ``estimate`` [l2];
``gain_override`` (> 0, finite) replaces weighted_l1's gain; weighted_sup's
``sigma`` is in (0, a pi^2) [a pi^2 / 2], ``theta`` in (0, pi - sqrt(sigma
/ a)) [its midpoint].  kernel_synthesis: tol bounds the sup distance to the
series oracle [1e-6]; the inverse-kernel round trip is held to 1e-8.
backstepping_loop: ``mode`` [closed]; open must grow its norm tenfold;
closed with ``d0 = zero`` fits the rate a pi^2 to relative error tol
[0.05], with a disturbance tol is the ISS certificate's slack [1e-6].

Selector catalog.  Selectors, ``name`` or ``name(arg, ...)``, are checked
when the file is read: c, amp, omega, t_on finite; j, modes whole numbers
>= 1 (``3`` or ``3.0``); path a ``t,value`` CSV with a header row, relative
to the scenario file.

Refused when read, by each rule's one owner: a not finite and > 0
(``solver.check_diffusion``); p < 1 or NaN (``norms.check_exponent``); d0 or d1
not covering [0, t_final] (``BoundarySignal``); initial data and d0, d1
disagreeing at t = 0 (``SemilinearProblem``); dt * k >= 1
(``solver.check_step_restriction``; k is the ``solver.Reaction``'s
``lipschitz_k``: |c| for linear(c), 1 for cubic, |k_reaction| for
backstepping_loop); loop initial data nonzero at z = 1
(``backstepping.check_far_end``); nonzero lyapunov boundary data
(``certify.lyapunov_preconditions``).

- reaction: zero | linear(c) | cubic
- initial: zero | constant(c) | sin_pi | mode(j) | ramp | random_smooth(modes, amp)
- signal (d0, d1): zero | constant(c) | step(c, t_on) | sinusoid(amp, omega) | file(path)

linear(c) is c w and cubic is w - w^3; neither reads the gradient w_z, so
the solver forms none for them.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import backstepping, certify
from .errors import InvalidParameterError, IssParabolicError, ScenarioError
from .grid import Field, Grid1D
from .norms import check_exponent
from .solver import (
    BoundarySignal,
    Reaction,
    SemilinearProblem,
    check_diffusion,
    check_step_restriction,
    linear_reaction,
)

ZERO = ("zero", ())
_CUBIC_EXPONENT = np.array(3.0)  # 0-d: a ufunc converts a Python number on every call


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one scenario deterministically; selectors are held parsed, as ``(name, args)``.

    ``None`` defers a default to its one owner: ``sigma`` and ``theta`` to
    ``certify.weighted_sup_parameters``, ``tol`` to the kind's runner.
    """

    name: str
    kind: str
    grid: Grid1D
    seed: int = 0
    a: float = 1.0
    k_reaction: float = 0.0
    reaction: tuple = ZERO
    initial: tuple = ZERO
    d0: tuple = ZERO
    d1: tuple = ZERO
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


def finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def positive_float(raw: str) -> float:
    value = finite_float(raw)
    if not value > 0.0:
        raise ValueError(f"expected a finite number > 0, got {value}")
    return value


def tolerance(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError(f"expected a tolerance 0 < tol < 1, got {value}")
    return value


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError("expected a boolean") from None


def _whole(raw: str) -> int:
    value = float(raw)
    if not (value.is_integer() and value >= 1.0):
        raise ValueError(f"expected a whole number >= 1, got {raw}")
    return int(value)


# The selector catalog: catalog -> name -> one parser per argument.
SELECTORS = {
    "reaction": {"zero": (), "linear": (finite_float,), "cubic": ()},
    "initial": {"zero": (), "constant": (finite_float,), "sin_pi": (), "mode": (_whole,), "ramp": (),
                "random_smooth": (_whole, finite_float)},
    "signal": {"zero": (), "constant": (finite_float,), "step": (finite_float, finite_float),
               "sinusoid": (finite_float, finite_float), "file": (Path,)},
}
_SELECTOR_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*(?:\((.*)\))?\s*$", re.IGNORECASE)


def parse_selector(text: str, catalog: str) -> tuple[str, tuple]:
    """Parse ``name`` or ``name(arg, ...)`` against one catalog into (name, parsed args)."""
    m = _SELECTOR_RE.match(text)
    name = m.group(1).lower() if m else None
    if name not in SELECTORS[catalog]:
        raise ValueError(f"expected name or name(arg, ...) with name in {sorted(SELECTORS[catalog])}")
    parsers, raw_args = SELECTORS[catalog][name], m.group(2) or ""
    args = [arg.strip() for arg in raw_args.split(",")] if raw_args.strip() else []
    if len(args) != len(parsers):
        raise ValueError(f"{name} takes {len(parsers)} argument(s), got {len(args)}")
    return name, tuple(parse(arg) for parse, arg in zip(parsers, args))


# The kind table: the [problem], [check] and [loop] keys each kind or variant reads besides a and logy.
KIND_KEYS = {
    "simulate": "reaction initial d0 d1 p",
    "simulate (decay_rate given)": "reaction initial d0 d1 p decay_rate tol",
    "sandwich": "reaction initial d0 d1 epsilon tol",
    "iss_check (estimate = l2)": "initial d0 d1 estimate tol",
    "iss_check (estimate = weighted_l1)": "initial d0 d1 estimate tol gain_override",
    "iss_check (estimate = weighted_sup)": "initial d0 d1 estimate tol sigma theta",
    "lyapunov": "initial d0 d1 p tol",
    "kernel_synthesis": "k_reaction tol",
    "backstepping_loop (mode = open)": "k_reaction mode p",
    "backstepping_loop (mode = closed)": "k_reaction mode p initial d0 tol",
}
KINDS = tuple(dict.fromkeys(entry.split()[0] for entry in KIND_KEYS))

# The only key table: section -> key -> parser.  The grid keys build the
# Grid1D; every other key is a Scenario field of the same name.
_SECTION_KEYS = {
    "scenario": {"name": str.strip, "kind": _choice(*KINDS), "seed": nonnegative_int},
    "grid": {"n_interior": int, "dt": float, "t_final": float},
    "problem": {
        "a": float, "k_reaction": finite_float, "reaction": partial(parse_selector, catalog="reaction"),
        "initial": partial(parse_selector, catalog="initial"), "d0": partial(parse_selector, catalog="signal"),
        "d1": partial(parse_selector, catalog="signal"),
    },
    "check": {
        "estimate": _choice("weighted_l1", "l2", "weighted_sup"), "p": float, "sigma": positive_float,
        "theta": positive_float, "tol": tolerance, "epsilon": positive_float, "decay_rate": positive_float,
        "gain_override": positive_float, "logy": _boolean,
    },
    "loop": {"mode": _choice("open", "closed")},
}
_REQUIRED = {("scenario", "kind"), ("grid", "n_interior"), ("grid", "dt"), ("grid", "t_final")}


def parse_scenario(path, tol=None, seed=None) -> Scenario:
    """Parse one scenario file, rejecting unknown sections, keys and values, then keys its kind does not
    read and values outside the domain its kind needs.  A given ``tol`` or ``seed`` is parsed as the text of
    ``check.tol`` or ``scenario.seed`` after the file's value and judged with it, but never counts as unread."""
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
    grid, overrides = {}, {"tol": tol, "seed": seed}
    for section, parsers in _SECTION_KEYS.items():
        for key, parse in parsers.items():
            raws = [cp.get(section, key)] if cp.has_option(section, key) else []
            raws += [str(overrides[key])] if overrides.get(key) is not None else []
            if not raws and (section, key) in _REQUIRED:
                raise ScenarioError(f"{path}: missing required key {section}.{key}")
            for raw in raws:
                try:
                    (grid if section == "grid" else values)[key] = parse(raw)
                except ValueError as exc:
                    raise ScenarioError(f"{path}: bad value for {section}.{key}: {raw!r} ({exc})") from exc
    try:
        values["grid"] = Grid1D(**grid)
    except InvalidParameterError as exc:
        raise ScenarioError(f"{path}: bad [grid]: {exc}") from exc
    scn = Scenario(**values)
    variant = {"simulate": "decay_rate given" if scn.decay_rate is not None else None,
               "iss_check": f"estimate = {scn.estimate}", "backstepping_loop": f"mode = {scn.mode}"}.get(scn.kind)
    entry = scn.kind if variant is None else f"{scn.kind} ({variant})"
    unread = [f"{section}.{key}" for section in ("problem", "check", "loop") if cp.has_section(section)
              for key in cp[section] if key not in ("a", "logy", *KIND_KEYS[entry].split())]
    if unread:
        raise ScenarioError(f"{path}: kind {entry} does not read {', '.join(unread)}")
    try:
        for key in _asks(scn):
            pass
    except IssParabolicError as exc:
        raise ScenarioError(f"{path}: bad value for {key}: {exc}") from exc
    return scn


def _asks(scn: Scenario):
    """Ask the one owner of each rule the file decides, yielding the key each ask judges just before it; what
    is built is thrown away, and ``random_smooth`` is anchored so the runner's seed changes no verdict."""
    grid, rng = scn.grid, np.random.default_rng(scn.seed)
    yield "problem.a"  # first: the sigma ask reads a
    check_diffusion(scn.a)
    yield "check.p"
    check_exponent(scn.p)
    yield "scenario.name"
    check_name(scn.name)
    for key in ("d0", "d1"):
        yield f"problem.{key}"
        make_signal(getattr(scn, key), grid, scn.base_dir)(grid.times())
    for key, theta in (("sigma", None), ("theta", scn.theta)):  # defaults pass; sigma alone, then with theta
        yield f"check.{key}"
        certify.weighted_sup_parameters(scn.a, scn.sigma, theta)
    yield "problem.initial"
    if scn.kind == "backstepping_loop":
        backstepping.check_far_end(make_initial(scn.initial, grid, rng, 0.0, 0.0))
        reaction = linear_reaction(scn.k_reaction)
    else:
        problem = build_problem(scn, rng)
        reaction = problem.reaction
    yield "grid.dt"
    check_step_restriction(grid.dt, 0.0 if reaction is None else reaction.lipschitz_k)
    if scn.kind == "lyapunov":
        yield "check.p"
        certify.lyapunov_rates(scn.a, scn.p)
        for key, signal in (("d0", problem.boundary_left), ("d1", problem.boundary_right)):
            yield f"problem.{key}"
            certify.lyapunov_preconditions(problem.is_heat, signal)


def check_name(name: str) -> None:
    """Refuse a scenario name that is not one filesystem-safe path component: [A-Za-z0-9._-]+, not . or .."""
    if name in (".", "..") or not re.fullmatch(r"[A-Za-z0-9._-]+", name):
        raise ScenarioError(f"scenario name {name!r} must be filesystem-safe")


def make_reaction(selector: tuple) -> Optional[Reaction]:
    """Build a parsed reaction selector: None for zero, else a ``Reaction`` that reads no gradient."""
    name, args = selector
    return {
        "zero": lambda: None,
        "linear": linear_reaction,
        "cubic": lambda: Reaction(lambda z, w, grad: w - w**_CUBIC_EXPONENT, 1.0, uses_gradient=False),
    }[name](*args)


def _read_signal_file(path: Path) -> BoundarySignal:
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ScenarioError(f"cannot read signal file {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"cannot parse signal file {path}: {exc}") from exc
    if table.shape[1] != 2:
        raise ScenarioError(f"signal file {path} must have two columns t,value")
    return BoundarySignal.sampled(table[:, 0], table[:, 1])


def make_signal(selector: tuple, grid: Grid1D, base_dir: Path) -> BoundarySignal:
    """Build a parsed signal selector on grid times; a relative ``file`` path joins ``base_dir``."""
    name, args = selector
    times = grid.times()
    return {
        "zero": BoundarySignal.zero,
        "constant": BoundarySignal.constant,
        "step": lambda c, t_on: BoundarySignal.sampled(times, np.where(times >= t_on, c, 0.0)),
        "sinusoid": lambda amp, omega: BoundarySignal.sampled(times, amp * np.sin(omega * times)),
        "file": lambda path: _read_signal_file(base_dir / path),
    }[name](*args)


def make_initial(selector: tuple, grid: Grid1D, rng: np.random.Generator, left0: float, right0: float) -> Field:
    """Build a parsed initial-profile selector.

    ``random_smooth`` anchors a linear ramp at the t = 0 boundary values so
    the pair (initial, signals) is always admissible; the deterministic
    profiles are used with matching boundary data.
    """
    name, args = selector
    z = grid.nodes
    ramp = left0 * (1.0 - z) + right0 * z

    def random_smooth(n_modes, amp):
        modes = (amp * rng.uniform(-1.0, 1.0) / j**2 * np.sin(j * np.pi * z) for j in range(1, n_modes + 1))
        return sum(modes, ramp)

    profile = {
        "zero": lambda: np.zeros(grid.n_nodes),
        "constant": lambda c: np.full(grid.n_nodes, c),
        "sin_pi": lambda: np.sin(np.pi * z),
        "mode": lambda j: np.sin(j * np.pi * z),
        "ramp": lambda: ramp,
        "random_smooth": random_smooth,
    }[name](*args)
    return Field(profile, grid)


def build_problem(scenario: Scenario, rng: np.random.Generator) -> SemilinearProblem:
    """Assemble the semilinear problem a scenario describes."""
    reaction = make_reaction(scenario.reaction)
    d0 = make_signal(scenario.d0, scenario.grid, scenario.base_dir)
    d1 = make_signal(scenario.d1, scenario.grid, scenario.base_dir)
    initial = make_initial(scenario.initial, scenario.grid, rng, float(d0(0.0)), float(d1(0.0)))
    return SemilinearProblem(
        a=scenario.a,
        initial=initial,
        boundary_left=d0,
        boundary_right=d1,
        reaction=reaction,
    )
