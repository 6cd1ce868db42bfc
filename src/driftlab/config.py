"""Experiment configuration: a JSON document, fully validated up front.

Validation collects every problem (not just the first) and rejects unknown
keys with a nearest-match suggestion.  Probabilities may be given as decimal
strings; they parse to binary floats with round-to-nearest.  The loaded
``ExperimentConfig`` is the validated ``SimConfig`` the stages run, so what it
implies (``istar``, ``cdf``, ``candidates``) is derived once.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Any

import numpy as np

from .distributions import (
    CoveringSet,
    FiniteDistribution,
    GeometricSchedule,
    PiecewiseSchedule,
    ProductStateSpace,
    Schedule,
)
from .errors import ConfigurationError, DriftlabError
from .guarantees import MODE_DEFAULT, MODE_LITERAL
from .presets import sensor3_document
from .simulate import SimConfig, number_problem
from .strategies import ActionModel, CostModel, StrategySpace


class ConfigError(ConfigurationError):
    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))

    def __reduce__(self):
        # args holds the joined message, not the list __init__ takes
        return type(self), (self.errors,)


# key: (kind, least, strict): a finite number of ``kind`` that is >= least,
# or > least when strict (``simulate.number_problem``); kappa may also be null
NUMBER_RULES = {
    "seed": (int, 0, False), "runs": (int, 1, False), "horizon": (int, 1, False),
    "V": (float, 0.0, False), "delay": (int, 0, False), "window": (int, 1, False),
    "nu": (float, 0, True), "lyapunov_cap": (float, 0.0, False), "eps": (float, 0, True),
    "kappa": (float, 0.0, False),
}
SWEEP_RULES = {  # the same rule for every entry of the list
    "V": (float, 0, True), "w": (int, 1, False), "s": (int, 1, False), "D": (int, 0, False),
}
COST_KEYS = {"tables", "constraints"}
COVERING_KEYS = {"members", "delta", "alpha_delta", "beta_delta"}
SCHEDULE_KEYS = {"kind", "rho", "start", "limit", "segments"}
# every top-level key but the model, covering and schedule, which a preset
# or the document supplies
DEFAULTS: dict[str, Any] = {
    "preset": None, "seed": 0, "runs": 1, "horizon": 100, "V": 1.0, "delay": 0,
    "window": 1, "mode": MODE_DEFAULT, "out_dir": "out", "nu": 0.05,
    "lyapunov_cap": 0.0, "eps": 0.05, "kappa": None,
    "sweep": {"V": [], "w": [], "s": [], "D": []},
}
TOP_KEYS = {*DEFAULTS, "state_space", "action_space", "cost", "covering", "schedule"}


@dataclass(frozen=True)
class ExperimentConfig(SimConfig):
    """A document's ``SimConfig`` plus the CLI stages' fields; key ``delay`` is ``D``."""

    runs: int
    mode: str
    out_dir: str
    nu: float
    lyapunov_cap: float
    eps: float
    kappa: float | None
    v_sweep: tuple[float, ...]
    w_sweep: tuple[int, ...]
    s_sweep: tuple[int, ...]
    d_sweep: tuple[int, ...]

    def validate(self) -> None:
        super().validate()
        K = self.space.cost.n_penalties
        rows = np.iinfo(np.intp).max // (8 * (K + 1))  # merge_runs holds (runs, K+1) float64
        if self.runs > rows:
            raise ConfigurationError(
                f"runs must be <= {rows} for {K} penalties, got {Decimal(self.runs):.3g}"
            )

    def sim(self) -> SimConfig:
        """This config; kept because ``bench/workloads.py`` calls it."""
        return self


def _unknown(keys, allowed, path, errors):
    for key in keys:
        if key not in allowed:
            low = key.lower()
            prefixed = sorted(
                (a for a in allowed
                 if low.startswith(a.lower()) or a.lower().startswith(low)),
                key=len, reverse=True,
            )
            hint = prefixed[:1] or difflib.get_close_matches(key, allowed, n=1)
            suffix = f' (did you mean "{hint[0]}"?)' if hint else ""
            errors.append(f"{path}: unknown key {key!r}{suffix}")


def _as_int(value) -> int:
    """``int(value)``, refusing True and "1" (``int`` gives 1) and 2.5 (``int`` gives 2)."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(doc, key, errors, path="", rule=(float, -math.inf, False), required=False):
    """``doc[key]`` as a number that keeps ``rule`` (see ``NUMBER_RULES``), or
    None after an error that names it."""
    label = f"{path}[{key}]" if isinstance(key, int) else f"{path}{key}"
    if key not in doc:
        if required:
            errors.append(f"{label}: missing")
        return None
    kind, least, strict = rule
    try:
        if isinstance(doc[key], (bool, str)):  # int() and float() take both
            raise TypeError
        value = (_as_int if kind is int else float)(doc[key])
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{label}: expected a {kind.__name__}, got {doc[key]!r}")
        return None
    problem = number_problem(value, kind, least, strict)
    if problem:
        errors.append(f"{label}: {problem}")
    return None if problem else value


def _dist(raw, label, errors) -> FiniteDistribution | None:
    try:
        probs = np.array([float(v) for v in raw], dtype=np.float64)
        return FiniteDistribution(probs)
    except (TypeError, ValueError, ConfigurationError) as exc:
        errors.append(f"{label}: {exc}")
        return None


def _is_object(block, path, errors) -> bool:
    if not isinstance(block, dict):
        errors.append(f"{path}: expected an object, got {block!r}")
    return isinstance(block, dict)


def _build_covering(block, errors) -> CoveringSet | None:
    if not _is_object(block, "covering", errors):
        return None
    _unknown(block, COVERING_KEYS, "covering", errors)
    raw_members = block.get("members")
    if not isinstance(raw_members, (list, tuple)) or not raw_members:
        errors.append(f"covering.members: expected a non-empty list, got {raw_members!r}")
        return None
    members = []
    for i, raw in enumerate(raw_members):
        d = _dist(raw, f"covering.members[{i}]", errors)
        if d is None:
            return None
        members.append(d)
    delta = _number(block, "delta", errors, "covering.", required=True)
    alpha = _number(block, "alpha_delta", errors, "covering.", required=True)
    beta = _number(block, "beta_delta", errors, "covering.", required=True)
    if None in (delta, alpha, beta):
        return None
    try:
        return CoveringSet(
            members=tuple(members), delta=delta, alpha_delta=alpha, beta_delta=beta
        )
    except ConfigurationError as exc:
        errors.append(f"covering: {exc}")
        return None


def _build_schedule(block, errors) -> Schedule | None:
    if not _is_object(block, "schedule", errors):
        return None
    _unknown(block, SCHEDULE_KEYS, "schedule", errors)
    kind = block.get("kind")
    limit = _dist(block.get("limit", []), "schedule.limit", errors)
    if limit is None:
        return None
    try:
        if kind == "geometric":
            start = _dist(block.get("start", []), "schedule.start", errors)
            rho = _number(block, "rho", errors, "schedule.", required=True)
            if start is None or rho is None:
                return None
            return GeometricSchedule(limit=limit, start=start, rho=rho)
        if kind == "piecewise":
            segments = []
            for i, seg in enumerate(block.get("segments", [])):
                if not isinstance(seg, (list, tuple)) or len(seg) != 2:
                    errors.append(f"schedule.segments[{i}]: expected a "
                                  f"[start, probabilities] pair, got {seg!r}")
                    return None
                start_slot = _as_int(seg[0])
                d = _dist(seg[1], f"schedule.segments[{i}]", errors)
                if d is None:
                    return None
                segments.append((start_slot, d))
            return PiecewiseSchedule(limit=limit, segments=tuple(segments))
    except (ConfigurationError, ValueError, TypeError, IndexError) as exc:
        errors.append(f"schedule: {exc}")
        return None
    errors.append(f"schedule.kind: expected 'geometric' or 'piecewise', got {kind!r}")
    return None


def _build_cost(block, errors) -> CostModel | None:
    if not _is_object(block, "cost", errors):
        return None
    _unknown(block, COST_KEYS, "cost", errors)
    tables = block.get("tables")
    if tables is None:
        errors.append("cost.tables: missing")
        return None
    try:
        arr = np.array(tables, dtype=np.float64)
        c = np.array(block.get("constraints", []), dtype=np.float64)
        return CostModel(tables=arr, c=c)
    except (TypeError, ValueError, ConfigurationError) as exc:
        errors.append(f"cost: {exc}")
        return None


def config_from_dict(doc: dict, source: str = "<config>") -> ExperimentConfig:
    """The config of ``doc`` laid over the preset it names, laid over
    ``DEFAULTS``: a top-level key replaces the whole value below it, except
    ``sweep``, which is replaced key by key.  An empty ``sweep.s`` is (5, 40)."""
    if not isinstance(doc, dict):
        raise ConfigError([f"{source}: document root must be an object"])
    errors: list[str] = []
    _unknown(doc, TOP_KEYS, source, errors)
    preset = doc.get("preset")
    if preset is not None and preset != "sensor3":
        errors.append(f'preset: unknown preset {preset!r} (known: "sensor3")')
        raise ConfigError(errors)
    base = dump_preset() if preset else DEFAULTS
    user_sweep = doc.get("sweep")
    doc = {**base, **doc}
    if isinstance(user_sweep, dict):
        doc["sweep"] = {**base["sweep"], **user_sweep}

    space = None
    ss = doc.get("state_space")
    aa = doc.get("action_space")
    if ss is None or aa is None:
        errors.append("state_space/action_space: required unless a preset supplies them")
    elif "cost" not in doc:
        errors.append("cost: required unless a preset supplies it")
    else:
        try:
            states = ProductStateSpace(tuple(_as_int(v) for v in ss))
            actions = ActionModel(tuple(_as_int(v) for v in aa))
        except (ValueError, TypeError, ConfigurationError) as exc:
            errors.append(f"state_space/action_space: {exc}")
            states = actions = None
        if states is not None:
            cost = _build_cost(doc["cost"], errors)
            if cost is not None:
                try:
                    space = StrategySpace(actions, states, cost)
                except DriftlabError as exc:
                    errors.append(f"cost: {exc}")
    covering = _build_covering(doc["covering"], errors) if "covering" in doc else None
    schedule = _build_schedule(doc["schedule"], errors) if "schedule" in doc else None
    for name, value in (("covering", covering), ("schedule", schedule)):
        if value is None and not any(e.startswith(name) for e in errors):
            errors.append(f"{name}: required unless a preset supplies it")

    mode = doc["mode"]
    if mode not in (MODE_DEFAULT, MODE_LITERAL):
        errors.append(f'mode: expected "default" or "literal", got {mode!r}')
    out_dir = doc["out_dir"]
    if not isinstance(out_dir, str):
        errors.append(f"out_dir: expected a string, got {out_dir!r}")
    numbers = {key: None if key == "kappa" and doc[key] is None
               else _number(doc, key, errors, rule=rule) for key, rule in NUMBER_RULES.items()}
    numbers["D"] = numbers.pop("delay")
    sweep = doc["sweep"]
    if not _is_object(sweep, "sweep", errors):
        sweep = {}
    _unknown(sweep, SWEEP_RULES, "sweep", errors)
    sweeps = {}
    for key, rule in SWEEP_RULES.items():
        raw = sweep.get(key, [])
        if not isinstance(raw, (list, tuple)):
            errors.append(f"sweep.{key}: expected a list, got {raw!r}")
            raw = []
        items = dict(enumerate(raw))
        sweeps[f"{key.lower()}_sweep"] = vals = tuple(
            _number(items, i, errors, f"sweep.{key}", rule=rule) for i in items
        )
        errors += [f"sweep.{key}[{i}]: repeats {v}"
                   for i, v in enumerate(vals) if v is not None and v in vals[:i]]
    sweeps["s_sweep"] = sweeps["s_sweep"] or (5, 40)

    if errors:
        raise ConfigError(errors)
    cfg = ExperimentConfig(
        space=space, covering=covering, schedule=schedule, mode=mode, out_dir=out_dir,
        **numbers, **sweeps,
    )
    try:
        cfg.validate()
    except ConfigurationError as exc:
        raise ConfigError([str(exc)]) from exc
    return cfg


def read_config(path: str | Path) -> dict:
    """The JSON object in ``path``; a missing file, a parse error or a root
    that is not an object raises ``ConfigError``."""
    p = Path(path)
    if not p.exists():
        raise ConfigError([f"{p}: file not found"])
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{p}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:  # an integer with more digits than int() takes
        raise ConfigError([f"{p}: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([f"{p}: document root must be an object"])
    return doc


def dump_preset() -> dict:
    """The sensor3 preset as a fully explicit config document: exactly what
    ``{"preset": "sensor3"}`` expands to."""
    return {**DEFAULTS, **sensor3_document()}
