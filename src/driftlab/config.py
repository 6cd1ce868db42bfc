"""Experiment configuration: a JSON document, fully validated up front.

Validation collects every problem (not just the first) and rejects unknown
keys with a nearest-match suggestion.  Probabilities may be given as decimal
strings; they parse to binary floats with round-to-nearest.  The loaded
``ExperimentConfig`` is the validated ``SimConfig`` the stages run, so what it
implies (``istar``, ``windows``, ``cdf``, ``candidates``) is derived once.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass, replace
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
from .errors import ConfigurationError
from .guarantees import MODE_DEFAULT, MODE_LITERAL
from .presets import (
    SENSOR3_DEFAULTS,
    sensor3_covering_and_schedule,
    sensor3_model,
)
from .simulate import SimConfig
from .strategies import ActionModel, CostModel, StrategySpace


class ConfigError(ConfigurationError):
    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))

    def __reduce__(self):
        # args holds the joined message, not the list __init__ takes
        return type(self), (self.errors,)


TOP_KEYS = {
    "preset", "seed", "runs", "horizon", "V", "delay", "window", "mode",
    "out_dir", "nu", "lyapunov_cap", "kappa", "eps",
    "state_space", "action_space", "cost", "covering", "schedule", "sweep",
}
SWEEP_RULES = {  # key: (element type, rule, check)
    "V": (float, "finite and > 0", lambda v: math.isfinite(v) and v > 0),
    "w": (int, ">= 1", lambda v: v >= 1),
    "s": (int, ">= 1", lambda v: v >= 1),
    "D": (int, ">= 0", lambda v: v >= 0),
}
COST_KEYS = {"preset", "tables", "constraints"}
COVERING_KEYS = {"preset", "members", "delta", "alpha_delta", "beta_delta"}
SCHEDULE_KEYS = {"preset", "kind", "rho", "start", "limit", "segments"}


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

    def sim(self, **overrides: Any) -> SimConfig:
        """This config, or a copy with ``overrides`` replaced; kept because
        ``bench/workloads.py`` calls it, the stages use ``dataclasses.replace``."""
        return replace(self, **overrides) if overrides else self


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
    """``int(value)``, refusing True (``int`` gives 1) and 2.5 (``int`` gives 2)."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(doc, key, errors, path="", required=False, default=None, kind=float):
    label = f"{path}[{key}]" if isinstance(key, int) else f"{path}{key}"
    if key not in doc:
        if required:
            errors.append(f"{label}: missing")
        return default
    try:
        return (_as_int if kind is int else kind)(doc[key])
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{label}: expected a {kind.__name__}, got {doc[key]!r}")
        return default


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
    bad = [f"covering.{name}: must be finite, got {value}"
           for name, value in (("delta", delta), ("alpha_delta", alpha),
                               ("beta_delta", beta)) if not math.isfinite(value)]
    if bad:
        errors += bad
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
    if not isinstance(doc, dict):
        raise ConfigError([f"{source}: document root must be an object"])
    errors: list[str] = []
    _unknown(doc, TOP_KEYS, source, errors)
    preset = doc.get("preset")
    if preset is not None and preset != "sensor3":
        errors.append(f'preset: unknown preset {preset!r} (known: "sensor3")')
        raise ConfigError(errors)

    space = covering = schedule = None
    defaults: dict[str, Any] = {
        "V": 1.0, "delay": 0, "window": 1, "horizon": 100, "runs": 1,
        "nu": 0.05, "lyapunov_cap": 0.0,
        "v_sweep": [], "w_sweep": [], "s_sweep": [], "d_sweep": [],
    }
    if preset == "sensor3":
        actions, states, cost = sensor3_model()
        space = StrategySpace(actions, states, cost)
        covering, schedule = sensor3_covering_and_schedule(states)
        defaults.update(SENSOR3_DEFAULTS)

    if space is None or "cost" in doc or "state_space" in doc:
        ss = doc.get("state_space")
        aa = doc.get("action_space")
        if ss is None or aa is None:
            errors.append(
                "state_space/action_space: required unless a preset supplies them"
            )
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
                    except Exception as exc:
                        errors.append(f"cost: {exc}")
    if "covering" in doc:
        covering = _build_covering(doc["covering"], errors)
    if "schedule" in doc:
        schedule = _build_schedule(doc["schedule"], errors)
    for name, value in (("covering", covering), ("schedule", schedule)):
        if value is None and not any(e.startswith(name) for e in errors):
            errors.append(f"{name}: required unless a preset supplies it")

    mode = doc.get("mode", MODE_DEFAULT)
    if mode not in (MODE_DEFAULT, MODE_LITERAL):
        errors.append(f'mode: expected "default" or "literal", got {mode!r}')
    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str):
        errors.append(f"out_dir: expected a string, got {out_dir!r}")
    seed = _number(doc, "seed", errors, kind=int, default=0)
    runs = _number(doc, "runs", errors, kind=int, default=defaults["runs"])
    horizon = _number(doc, "horizon", errors, kind=int, default=defaults["horizon"])
    V = _number(doc, "V", errors, default=defaults["V"])
    delay = _number(doc, "delay", errors, kind=int, default=defaults["delay"])
    window = _number(doc, "window", errors, kind=int, default=defaults["window"])
    nu = _number(doc, "nu", errors, default=defaults["nu"])
    cap = _number(doc, "lyapunov_cap", errors, default=defaults["lyapunov_cap"])
    eps = _number(doc, "eps", errors, default=0.05)
    kappa = None
    if doc.get("kappa") is not None:
        kappa = _number(doc, "kappa", errors)
    sweep = doc.get("sweep", {})
    if not _is_object(sweep, "sweep", errors):
        sweep = {}
    _unknown(sweep, SWEEP_RULES, "sweep", errors)
    sweeps = {}
    for key, (kind, rule, ok) in SWEEP_RULES.items():
        raw = sweep.get(key, defaults[f"{key.lower()}_sweep"])
        if not isinstance(raw, (list, tuple)):
            errors.append(f"sweep.{key}: expected a list, got {raw!r}")
            raw = []
        items = dict(enumerate(raw))
        sweeps[f"{key.lower()}_sweep"] = vals = tuple(
            _number(items, i, errors, f"sweep.{key}", kind=kind) for i in items
        )
        errors += [f"sweep.{key}[{i}]: must be {rule}, got {v}"
                   for i, v in enumerate(vals) if v is not None and not ok(v)]
        errors += [f"sweep.{key}[{i}]: repeats {v}"
                   for i, v in enumerate(vals) if v is not None and v in vals[:i]]
    errors += [f"{name}: must be finite, got {value}" for name, value in (
        ("V", V), ("nu", nu), ("lyapunov_cap", cap), ("eps", eps), ("kappa", kappa),
    ) if value is not None and not math.isfinite(value)]
    for name, value, low in (
        ("seed", seed, 0), ("runs", runs, 1), ("horizon", horizon, 1),
        ("window", window, 1), ("delay", delay, 0), ("V", V, 0.0),
        ("lyapunov_cap", cap, 0.0), ("kappa", kappa, 0.0),
    ):
        if value is not None and value < low:
            errors.append(f"{name}: must be >= {low}, got {value}")
    errors += [f"{name}: must be > 0, got {value}" for name, value in (
        ("nu", nu), ("eps", eps)) if value is not None and value <= 0]

    if errors:
        raise ConfigError(errors)
    cfg = ExperimentConfig(
        space=space, covering=covering, schedule=schedule,
        V=V, D=delay, window=window, horizon=horizon, runs=runs,
        seed=seed, mode=mode, out_dir=out_dir,
        nu=nu, lyapunov_cap=cap, eps=eps, kappa=kappa, **sweeps,
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
    if not isinstance(doc, dict):
        raise ConfigError([f"{p}: document root must be an object"])
    return doc


def dump_preset(name: str = "sensor3") -> dict:
    """Fully explicit config document for a named preset: its loaded config,
    field by field."""
    cfg = config_from_dict({"preset": name})
    cost, covering, schedule = cfg.space.cost, cfg.covering, cfg.schedule
    return {
        "preset": None,
        "seed": cfg.seed,
        "runs": cfg.runs,
        "horizon": cfg.horizon,
        "V": cfg.V,
        "delay": cfg.D,
        "window": cfg.window,
        "mode": cfg.mode,
        "out_dir": cfg.out_dir,
        "nu": cfg.nu,
        "lyapunov_cap": cfg.lyapunov_cap,
        "eps": cfg.eps,
        "kappa": cfg.kappa,
        "state_space": list(cfg.space.states.per_user_cardinalities),
        "action_space": list(cfg.space.actions.per_user_action_counts),
        "cost": {
            "tables": cost.tables.tolist(),
            "constraints": cost.c.tolist(),
        },
        "covering": {
            "members": [m.probs.tolist() for m in covering.members],
            "delta": covering.delta,
            "alpha_delta": covering.alpha_delta,
            "beta_delta": covering.beta_delta,
        },
        "schedule": {
            "kind": "geometric",
            "rho": schedule.rho,
            "start": schedule.start.probs.tolist(),
            "limit": schedule.limit.probs.tolist(),
        },
        "sweep": {
            "V": list(cfg.v_sweep),
            "w": list(cfg.w_sweep),
            "s": list(cfg.s_sweep),
            "D": list(cfg.d_sweep),
        },
    }
