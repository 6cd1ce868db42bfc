import contextlib
import copy
import hashlib
import io
import json
import pickle
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from _helpers import sensor3_config, sensor_limit, sensor_tables
from driftlab import cli, config, simulate
from driftlab.cli import blocking_constants, fmt, main, read_traces
from driftlab.config import (
    DEFAULTS, NUMBER_RULES, SWEEP_RULES, TOP_KEYS, ConfigError, config_from_dict, dump_preset,
    read_config,
)
from driftlab.errors import DriftlabError
from driftlab.guarantees import LOG3
from driftlab.presets import sensor3_document
from driftlab.simulate import SimConfig, run_ensemble


DROP = object()  # test_malformed_block_exit_code: delete the key
# one user, two members; V 2, window 30, seed 1, 100 runs x 300 slots
ONE_USER = {
    "state_space": [3], "action_space": [2],
    "cost": {"tables": [[[-1, 0, 0], [-1, 0, 0]], [[0, 1, 1], [1, 1, 0]]],
             "constraints": [0.4]},
    "covering": {"members": [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]], "delta": 0.9,
                 "alpha_delta": 0.99, "beta_delta": 0.01},
    "schedule": {"kind": "piecewise", "limit": [0.8, 0.1, 0.1],
                 "segments": [[0, [0.8, 0.1, 0.1]]]},
    "V": 2, "window": 30, "seed": 1, "runs": 100, "horizon": 300,
}


def write_doc(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestConfig:
    def test_preset_expands(self):
        cfg = config_from_dict({"preset": "sensor3"})
        assert cfg.V == 20.0
        assert cfg.window == 40
        assert cfg.horizon == 5000
        assert cfg.runs == 1000
        assert cfg.space.F == 4096
        assert cfg.covering.size == 8
        assert cfg.v_sweep == (2.0, 5.0, 20.0)

    def test_scalar_overrides(self):
        cfg = config_from_dict({"preset": "sensor3", "V": 2.0, "runs": 10,
                                "horizon": 99, "seed": 5})
        assert (cfg.V, cfg.runs, cfg.horizon, cfg.seed) == (2.0, 10, 99, 5)

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigError, match=r'did you mean "V"'):
            config_from_dict({"preset": "sensor3", "Vee": 4})

    def test_bad_probability_row_named(self):
        doc = dump_preset()
        doc["covering"]["members"][2][0] = 0.0  # row now sums to ~0.99
        with pytest.raises(ConfigError, match=r"covering.members\[2\]"):
            config_from_dict(doc)

    def test_decimal_strings_parse(self):
        doc = dump_preset()
        doc["schedule"]["limit"] = [str(v) for v in doc["schedule"]["limit"]]
        cfg = config_from_dict(doc)
        assert len(cfg.schedule.limit) == 64

    def test_errors_are_collected_not_first_only(self):
        try:
            config_from_dict({"preset": "sensor3", "runs": 0, "horizon": 0,
                              "mode": "bogus"})
        except ConfigError as exc:
            text = str(exc)
            assert "runs" in text and "horizon" in text and "mode" in text
        else:
            pytest.fail("expected ConfigError")

    @pytest.mark.parametrize("doc, field", [
        ({"V": float("nan")}, "V"),
        ({"V": float("inf")}, "V"),
        ({"sweep": {"V": [2.0, float("inf")]}}, r"sweep\.V\[1\]"),
    ])
    def test_non_finite_V_rejected(self, doc, field):
        with pytest.raises(ConfigError, match=field + ": must be finite"):
            config_from_dict({"preset": "sensor3", **doc})

    def test_infinite_integer_field_named(self):
        # int(inf) raises OverflowError, which used to escape as a traceback
        with pytest.raises(ConfigError, match="window: expected a int, got inf"):
            config_from_dict({"preset": "sensor3", "window": float("inf")})

    def test_every_number_key_has_a_rule(self):
        # a numeric key without a rule would load unchecked
        numeric = {key for key, value in DEFAULTS.items() if type(value) in (int, float)}
        assert numeric | {"kappa"} == set(NUMBER_RULES)
        assert set(DEFAULTS["sweep"]) == set(SWEEP_RULES)

    def test_out_dir_must_be_a_string(self):
        with pytest.raises(ConfigError, match="out_dir: expected a string, got 5"):
            config_from_dict({"preset": "sensor3", "out_dir": 5})

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "preset": "sensor3",\n  broken\n}')
        with pytest.raises(ConfigError, match="line 3"):
            config_from_dict(read_config(p))

    @pytest.mark.parametrize("digits, message", [
        (400, "horizon must be <= 18014398509481983 for 64 states, got 1.00e+400"),
        (5000, "Exceeds the limit (4300 digits) for integer string conversion"),
    ])
    def test_huge_integer_exit_code(self, tmp_path, capsys, digits, message):
        # beyond the float range, and beyond the digits int() converts
        p = tmp_path / "big.json"
        p.write_text('{"preset": "sensor3", "horizon": 1' + "0" * digits + "}")
        assert main(["lp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            config_from_dict(read_config(tmp_path / "nope.json"))

    def test_dump_round_trips(self):
        assert set(dump_preset()) == TOP_KEYS
        cfg = config_from_dict(dump_preset())
        base = config_from_dict({"preset": "sensor3"})
        for f in fields(base):
            if f.name not in ("space", "covering", "schedule"):
                assert getattr(cfg, f.name) == getattr(base, f.name), f.name
        assert cfg.space.F == base.space.F
        assert cfg.space.states.counts == base.space.states.counts
        assert cfg.space.actions.counts == base.space.actions.counts
        assert np.array_equal(cfg.space.cost.tables, base.space.cost.tables)
        assert np.array_equal(cfg.space.cost.c, base.space.cost.c)
        assert np.array_equal(cfg.covering.prob_matrix, base.covering.prob_matrix)
        for name in ("delta", "alpha_delta", "beta_delta"):
            assert getattr(cfg.covering, name) == getattr(base.covering, name)
        assert np.array_equal(cfg.schedule.limit.probs, base.schedule.limit.probs)
        assert np.array_equal(cfg.schedule.start.probs, base.schedule.start.probs)
        assert cfg.schedule.rho == base.schedule.rho

    def test_loaded_config_is_the_sim_config(self):
        cfg = config_from_dict({"preset": "sensor3", "delay": 2})
        assert isinstance(cfg, SimConfig)
        assert cfg.D == 2

    def test_sim_overrides_copy_one_field(self):
        cfg = config_from_dict({"preset": "sensor3"})
        other = replace(cfg, V=2.0)
        assert (other.V, cfg.V) == (2.0, 20.0)
        assert [f.name for f in fields(cfg)
                if getattr(other, f.name) is not getattr(cfg, f.name)] == ["V"]

    def test_explicit_custom_model(self):
        doc = {
            "seed": 0, "runs": 1, "horizon": 8, "V": 1.0, "window": 2,
            "state_space": [2], "action_space": [2],
            "cost": {"tables": [[[1.0, 0.0], [0.0, 1.0]],
                                 [[0.2, 0.2], [0.8, 0.8]]],
                     "constraints": [0.5]},
            "covering": {"members": [[0.5, 0.5], [0.9, 0.1]],
                         "delta": 1.0, "alpha_delta": 0.95, "beta_delta": 0.05},
            "schedule": {"kind": "piecewise", "limit": [0.5, 0.5],
                         "segments": [[0, [0.5, 0.5]]]},
        }
        cfg = config_from_dict(doc)
        assert cfg.space.F == 4
        assert cfg.covering.size == 2


class TestBlockingConstants:
    def test_exact_factorization(self):
        for t in [1, 2, 3, 10, 99, 100, 4999, 5000, 12345]:
            alpha, u, v = blocking_constants(t)
            assert u * v == t - alpha
            assert u >= 1 and v >= 1 and alpha >= 0
            assert alpha <= max(2 * t**0.5 + 2, 4)

    def test_benchmark_scale(self):
        alpha, u, v = blocking_constants(5000)
        assert (alpha, u, v) == (100, 70, 70)


class TestFmt:
    def test_twelve_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(-0.3946666666666666) == "-0.394666666667"
        assert fmt(5) == "5"
        assert fmt(True) == "true"
        assert fmt(None) == ""

    @pytest.mark.parametrize("v", [1 / 3, -0.0, 0.0, 1e-300, -2.5e17, float("inf")])
    def test_python_and_numpy_floats_print_alike(self, v):
        assert fmt(v) == fmt(np.float64(v)) == f"{v:.12g}"


class TestCli:
    def test_smoke_single_slot(self, tmp_path):
        out = str(tmp_path / "o")
        rc = main(["simulate", "--out", out, "--runs", "1", "--horizon", "1",
                   "--seed", "0"])
        assert rc == 0
        trace = (tmp_path / "o" / "trace_run0000.csv").read_text().splitlines()
        assert trace[0] == "# mode=default"
        assert trace[1].startswith("t,omega,jstar,m,p0")
        assert len(trace) == 3  # comment + header + one slot

    def test_lp_value_in_csv(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["lp", "--out", out]) == 0
        body = (tmp_path / "o" / "lp.csv").read_text()
        assert "value,,-0.394666666667" in body

    def test_empirics_requires_traces(self, tmp_path):
        rc = main(["empirics", "--out", str(tmp_path / "empty"), "--runs", "1",
                   "--horizon", "50"])
        assert rc == 3

    # (column, text) written into slot 2: t, omega, jstar and m are columns 0-3,
    # p0-p3 columns 4-7 and Q1-Q3 columns 8-10
    CELL_DAMAGE = {"bad_cell": (2, "x"), "bad_omega": (1, "x"), "omega_range": (1, "64"),
                   "negative_jstar": (2, "-1"), "fractional_m": (3, "1.5"),
                   "slot_column": (0, "7"), "inf_p": (4, "inf"), "nan_q": (8, "nan")}

    @pytest.mark.parametrize("stage", ["empirics", "compare"])
    @pytest.mark.parametrize("damage, message", [
        ("bad_cell", "could not convert string 'x' to float64"),
        ("short_row", "changed from 15 to 5"),
        ("bad_omega", "could not convert string 'x' to float64 at row 2, column 2"),
        ("omega_range", "slot 2: omega 64 is not an integer in [0, 64)"),
        ("negative_jstar", "slot 2: jstar -1 is not an integer in [0, 8)"),
        ("fractional_m", "slot 2: m 1.5 is not an integer in [0, 4096)"),
        ("slot_column", "column t is not 0..59"),
        ("narrow_file", "14 columns, expected 15"),
        ("inf_p", "slot 2: p0 inf is not finite"),
        ("nan_q", "slot 2: Q1 nan is not finite"),
        ("mode_line", "mode line is '# mode=literal', expected '# mode=default'"),
        ("no_mode_line", "mode line is 't,omega,jstar,m,p0,"),
        ("column_line", "column line is 't,omega,jstar,m,x0,"),
        ("comment_row", "the number of columns changed from 15 to 1 at row 4"),
        ("empty_file", "empty file"),
        ("header_only", "no rows after the header"),
    ])
    @pytest.mark.filterwarnings("error")  # numpy's no-data warning must not leak
    def test_malformed_trace_exit_code(self, tmp_path, capsys, stage, damage, message):
        argv = ["--out", str(tmp_path / "o"), "--runs", "2", "--horizon", "60"]
        assert main(["simulate"] + argv) == 0
        path = tmp_path / "o" / "trace_run0001.csv"
        lines = path.read_text().splitlines()
        if damage == "short_row":
            lines[10] = ",".join(lines[10].split(",")[:5])  # slot 8 loses Q and avg
        elif damage == "narrow_file":
            lines[2:] = [line.rsplit(",", 1)[0] for line in lines[2:]]  # no avg_p3
        elif damage == "mode_line":
            lines[0] = "# mode=literal"
        elif damage == "no_mode_line":
            del lines[0]
        elif damage == "column_line":
            lines[1] = lines[1].replace(",p0,", ",x0,")
        elif damage == "comment_row":
            lines.insert(5, "# note")  # between slots 2 and 3
        elif damage == "empty_file":
            lines = []
        elif damage == "header_only":
            del lines[2:]
        else:
            column, text = self.CELL_DAMAGE[damage]
            cells = lines[4].split(",")  # slot 2
            cells[column] = text
            lines[4] = ",".join(cells)
        path.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert main([stage] + argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and message in err and err.count("\n") == 1

    def test_missing_trace_check_lists_no_paths(self, tmp_path):
        # each path is built and checked in turn: a run count far past the
        # files on disk fails at run 0 without a path per run in memory
        cfg = replace(sensor3_config(), runs=200_000, out_dir=str(tmp_path))
        tracemalloc.start()
        try:
            with pytest.raises(FileNotFoundError, match="trace_run0000.csv: 200000 runs"):
                read_traces(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("queues", ["one_negative", "all_zero"])
    def test_queue_growth_row(self, tmp_path, queues):
        # a negative queue is an infinite violation; zero queues leave the
        # margin of slot 0, -(p_max - c), which is below zero
        argv = ["--out", str(tmp_path / "o"), "--runs", "2", "--horizon", "60"]
        assert main(["simulate"] + argv) == 0
        path = tmp_path / "o" / "trace_run0001.csv"
        lines = path.read_text().splitlines()
        for slot in [28] if queues == "one_negative" else range(60):
            cells = lines[2 + slot].split(",")
            cells[8:11] = ["0", "-0.5", "0"] if queues == "one_negative" else ["0"] * 3
            lines[2 + slot] = ",".join(cells)
        path.write_text("".join(line + "\n" for line in lines))
        if queues == "all_zero":
            (tmp_path / "o" / "trace_run0000.csv").write_bytes(path.read_bytes())
        assert main(["compare"] + argv) == 0
        rows = [r.split(",") for r in
                (tmp_path / "o" / "compare.csv").read_text().splitlines()[2:]]
        cost = sensor3_config().space.cost
        want = (["inf", "0", "default", "false"] if queues == "one_negative" else
                [fmt(-float((cost.p_max[1:] - cost.c).min())), "0", "default", "true"])
        assert {r[0]: r for r in rows}["queue_growth_violation"][3:] == want

    def test_zero_V_runs_every_stage(self, tmp_path):
        # the bound stack divides by V, so compare leaves the average rows unbounded
        p = write_doc(tmp_path, {"preset": "sensor3", "V": 0, "runs": 2, "horizon": 80,
                                 "out_dir": str(tmp_path / "o")})
        for stage in ("simulate", "lp", "bounds", "empirics", "compare"):
            assert main([stage, "--config", str(p)]) == 0, stage
        rows = [r.split(",") for r in
                (tmp_path / "o" / "compare.csv").read_text().splitlines()[2:]]
        by_name = {r[0]: r for r in rows}
        for name in ("cost_avg", "penalty_avg_p1", "penalty_avg_p2", "penalty_avg_p3"):
            assert by_name[name][4:] == ["", "default", "inapplicable"]
        assert by_name["queue_growth_violation"][4:] == ["0", "default", "true"]
        assert by_name["detect_error_violation"][6] == "true"
        assert len(rows) == 11

    def test_zero_V_without_a_V_sweep_fails_bounds(self, tmp_path, capsys):
        p = write_doc(tmp_path, {"preset": "sensor3", "V": 0, "horizon": 80,
                                 "sweep": {"V": []}})
        assert main(["bounds", "--config", str(p), "--out", str(tmp_path / "o")]) == 4
        assert "V must be > 0 in the bound stack, got 0.0" in capsys.readouterr().err

    def test_out_is_a_regular_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert main(["simulate", "--out", str(out), "--runs", "1", "--horizon", "5"]) == 3
        assert "File exists" in capsys.readouterr().err

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_trace_path_is_a_directory_exit_code(self, tmp_path, capsys, monkeypatch,
                                                 cpus):
        # 17 runs are two blocks: with two CPUs run 1 comes from a forked worker
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / "o"
        (out / "trace_run0001.csv").mkdir(parents=True)
        argv = ["simulate", "--out", str(out), "--runs", "17", "--horizon", "5"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "Is a directory" in err and "trace_run0001.csv" in err
        assert simulate._worker_count(17) == cpus

    def test_bad_config_exit_code(self, tmp_path):
        p = write_doc(tmp_path, {"preset": "sensor3", "Vee": 1})
        assert main(["lp", "--config", str(p)]) == 2

    def test_nan_V_exit_code(self, tmp_path, capsys):
        p = write_doc(tmp_path, {"preset": "sensor3", "V": float("nan")})
        for cmd in ("simulate", "bounds"):
            assert main([cmd, "--config", str(p), "--out", str(tmp_path / "o"),
                         "--runs", "1", "--horizon", "50"]) == 2
        assert "V: must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("V", True, "V: expected a float, got True"),
        ("V", "1", "V: expected a float, got '1'"),
        ("nu", True, "nu: expected a float, got True"),
        ("runs", "3", "runs: expected a int, got '3'"),
        ("covering", {"delta": "0.1"}, "covering.delta: expected a float, got '0.1'"),
    ])
    def test_bool_or_string_number_exit_code(self, tmp_path, capsys, key, value, message):
        # each used to load as the number it spells (V = 1.0, runs = 3, delta = 0.1)
        doc = dump_preset()
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        p = write_doc(tmp_path, doc)
        assert main(["lp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"\n  {message}\n" in capsys.readouterr().err + "\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stage", ["simulate", "bounds"])
    def test_unshapeable_horizon_exit_code(self, tmp_path, capsys, stage):
        # 1e308 used to load, and numpy raised on the (horizon, |Omega|) arrays
        p = write_doc(tmp_path, {"preset": "sensor3", "horizon": 1e308})
        assert main([stage, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "\n  horizon must be <= " in capsys.readouterr().err

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB")

        monkeypatch.setattr(cli, "run_ensemble", out_of_memory)
        assert main(["simulate", "--out", str(tmp_path / "o"), "--horizon", "5"]) == 4
        assert "out of memory: Unable to allocate 29.1 TiB" in capsys.readouterr().err

    def test_out_of_memory_in_the_space_build_is_not_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # running out of memory is not a config problem: exit 4, not 2
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB")

        monkeypatch.setattr(config, "StrategySpace", out_of_memory)
        assert main(["lp", "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 2.00 GiB\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep, field", [
        ({"V": ["x"]}, "sweep.V[0]"),
        ({"V": 5}, "sweep.V"),
        ({"D": [-1]}, "sweep.D[0]"),
        ({"w": [0]}, "sweep.w[0]"),
        ({"s": [0]}, "sweep.s[0]"),
        ({"s": [5, 5]}, "sweep.s[1]"),
        ({"V": [5, 2, 5]}, "sweep.V[2]"),
    ])
    def test_bad_sweep_entry_exit_code(self, tmp_path, capsys, sweep, field):
        p = write_doc(tmp_path, {"preset": "sensor3", "sweep": sweep})
        assert main(["bounds", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--horizon", "200"]) == 2
        assert f"\n  {field}: " in capsys.readouterr().err

    def test_non_integral_integer_fields_exit_code(self, tmp_path, capsys):
        # int() used to truncate these: window 2, horizon 10, w (12,), D (1,)
        doc = {"preset": "sensor3", "window": 2.5, "horizon": 10.9,
               "sweep": {"w": [12.7], "D": [True]}}
        p = write_doc(tmp_path, doc)
        assert main(["bounds", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        for field, value in (("window", "2.5"), ("horizon", "10.9"),
                             ("sweep.w[0]", "12.7"), ("sweep.D[0]", "True")):
            assert f"\n  {field}: expected a int, got {value}" in err

    def test_integral_floats_still_load(self):
        cfg = config_from_dict({"preset": "sensor3", "window": 40.0, "runs": 3.0,
                                "sweep": {"w": [12.0], "D": [2.0]}})
        assert (cfg.window, cfg.runs, cfg.w_sweep, cfg.d_sweep) == (40, 3, (12,), (2,))
        assert type(cfg.window) is int and type(cfg.w_sweep[0]) is int

    @pytest.mark.parametrize("key, value", [
        ("state_space", [2.5]), ("action_space", [True]),
    ])
    def test_non_integral_space_sizes_rejected(self, key, value):
        doc = {"state_space": [2], "action_space": [2],
               "cost": {"tables": [[[1.0, 0.0], [0.0, 1.0]]]}, key: value}
        message = "state_space/action_space: expected an integer"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(doc)

    def test_non_integral_segment_start_rejected(self):
        uniform = [1 / 64] * 64
        doc = {"preset": "sensor3", "schedule": {
            "kind": "piecewise", "limit": uniform, "segments": [[0.5, uniform]]}}
        with pytest.raises(ConfigError, match="schedule: expected an integer, got 0.5"):
            config_from_dict(doc)

    @pytest.mark.parametrize("stage", ["simulate", "lp", "bounds", "empirics", "compare"])
    @pytest.mark.parametrize("field, value, rule", [
        ("runs", 0, ">= 1"), ("horizon", 0, ">= 1"), ("seed", -1, ">= 0"),
    ])
    @pytest.mark.parametrize("as_flag", [True, False], ids=["flag", "key"])
    def test_out_of_range_field_exit_code(self, tmp_path, capsys, stage, field,
                                          value, rule, as_flag):
        argv = [stage, "--out", str(tmp_path / "o")]
        if as_flag:
            argv += [f"--{field}", str(value)]
        else:
            argv += ["--config", str(write_doc(tmp_path, {"preset": "sensor3",
                                                          field: value}))]
        assert main(argv) == 2
        assert f"\n  {field}: must be {rule}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stage", ["simulate", "lp", "bounds", "empirics", "compare"])
    @pytest.mark.parametrize("field, value, rule", [
        ("eps", -1.0, "> 0"), ("kappa", -0.5, ">= 0.0"), ("lyapunov_cap", -5.0, ">= 0.0"),
    ])
    def test_out_of_range_scalar_exit_code(self, tmp_path, capsys, stage, field,
                                           value, rule):
        # each used to load, and a negative kappa or cap changed bounds.csv
        p = write_doc(tmp_path, {"preset": "sensor3", field: value})
        assert main([stage, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"\n  {field}: must be {rule}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stage", ["simulate", "lp", "bounds"])
    def test_uncovered_outcome_exit_code(self, tmp_path, capsys, stage):
        # outcome 2 gets mass in slots 7-8, and no member covers it
        covered = [0.5, 0.5, 0.0]
        doc = {
            "horizon": 40, "window": 2, "state_space": [3], "action_space": [2],
            "cost": {"tables": [[[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]],
                                [[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]],
                     "constraints": [0.5]},
            "covering": {"members": [covered, [0.4, 0.6, 0.0]],
                         "delta": 1.0, "alpha_delta": 0.95, "beta_delta": 0.05},
            "schedule": {"kind": "piecewise", "limit": covered,
                         "segments": [[0, covered], [7, [0.4, 0.4, 0.2]], [9, covered]]},
        }
        p = write_doc(tmp_path, doc)
        assert main([stage, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "outcome 2 from slot 7" in capsys.readouterr().err

    def test_bounds_sweep_rows_match_single_point_sweeps(self, tmp_path, monkeypatch):
        probe = cli.lipschitz_probe
        calls = []
        monkeypatch.setattr(
            cli, "lipschitz_probe", lambda *args: calls.append(1) or probe(*args)
        )

        def bounds_rows(name, w, D):
            doc = {"preset": "sensor3", "horizon": 400, "kappa": 0.05,
                   "sweep": {"V": [2.0, 20.0], "w": w, "D": D}}
            p = write_doc(tmp_path, doc, f"{name}.json")
            out = tmp_path / name
            assert main(["bounds", "--config", str(p), "--out", str(out)]) == 0
            return (out / "bounds.csv").read_text().splitlines()[2:]

        rows = bounds_rows("all", [10, 40], [0, 1])
        assert len(calls) == 1  # once per invocation, not once per (w, D)
        single = [row for w in (10, 40) for D in (0, 1)
                  for row in bounds_rows(f"w{w}_D{D}", [w], [D])]
        assert len(calls) == 5
        assert len(rows) == 64 and rows == single

    @pytest.mark.parametrize("mode", ["default", "literal"])
    def test_bound_rows_share_one_context(self, mode):
        # one (w, D) point at a time, reusing the full sweep's context in
        # reverse order, gives exactly that point's rows of the full sweep
        cfg = config_from_dict({"preset": "sensor3", "horizon": 400, "kappa": 0.05,
                                "mode": mode, "sweep": {"V": [2.0, 20.0], "w": [10, 40],
                                                        "D": [0, 2]}})
        ctx = cli._bound_context(cfg)
        full = [list(map(repr, row)) for row in cli.bound_rows(cfg, ctx)]
        assert len(full) == 64 and len(full[0]) == len(cli.bound_columns(cfg))
        for w, D in [(40, 2), (40, 0), (10, 2), (10, 0)]:
            one = replace(cfg, w_sweep=(w,), d_sweep=(D,))
            rows = [list(map(repr, row)) for row in cli.bound_rows(one, ctx)]
            assert rows == [row for row in full if row[2:4] == [repr(D), repr(w)]]
        assert not ctx["prefix"].flags.writeable

    def test_lp_infeasible_exit_code(self, tmp_path, capsys):
        doc = dump_preset()
        doc["cost"]["constraints"] = [-1, -1, -1]
        out = tmp_path / "o"
        assert main(["lp", "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "limit distribution" in err and "status infeasible" in err
        assert (out / "lp.csv").read_text().splitlines()[2:] == [
            "status,,infeasible", "value,,inf"]

    @pytest.mark.parametrize("stage", ["bounds", "compare"])
    def test_infeasible_bound_lp_names_the_member(self, tmp_path, capsys, stage):
        doc = dump_preset()
        doc["cost"]["constraints"] = [-1, -1, -1]
        argv = ["--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "o"),
                "--runs", "1", "--horizon", "60"]
        if stage == "compare":
            assert main(["simulate"] + argv) == 0
        assert main([stage] + argv) == 4
        err = capsys.readouterr().err
        assert "covering member 0 (nearest to the schedule limit)" in err
        assert "no feasible mixture at levels c + x" in err and "x=0.0" in err

    def test_zero_mass_member_fails_the_bound_stages_by_name(self, tmp_path, capsys):
        # member 1 has no mass on outcome 1: the divergence series takes its log
        doc = {
            "state_space": [2], "action_space": [2],
            "cost": {"tables": [[[-1, 0], [0, -1]], [[0, 1], [1, 0]]],
                     "constraints": [0.6]},
            "covering": {"members": [[0.5, 0.5], [1.0, 0.0]], "delta": 1.0,
                         "alpha_delta": 1.5, "beta_delta": 0.01},
            "schedule": {"kind": "piecewise", "limit": [0.5, 0.5],
                         "segments": [[0, [0.5, 0.5]]]},
            "window": 5, "runs": 2, "horizon": 60, "out_dir": str(tmp_path / "o"),
        }
        p = write_doc(tmp_path, doc)
        # compare fails before it looks for a trace
        assert main(["compare", "--config", str(p)]) == 4
        assert capsys.readouterr().err.count("member 1 has zero mass on outcome 1") == 1
        codes = [main([stage, "--config", str(p)]) for stage in PIPELINE]
        assert codes == [0, 0, 4, 0, 4]
        err = capsys.readouterr().err
        assert err.count("strictly positive members: member 1 has zero mass on outcome 1") == 2

    def test_empirics_without_an_lp_optimum_leaves_the_values_empty(self, tmp_path, capsys):
        doc = dump_preset()
        doc["cost"]["constraints"] = [-1, -1, -1]
        p = write_doc(tmp_path, doc)
        argv = ["--config", str(p), "--out", str(tmp_path / "o"), "--runs", "2",
                "--horizon", "200"]
        assert main(["simulate"] + argv) == 0
        assert main(["empirics"] + argv) == 0
        assert "lp optimum (cost): no optimum (status infeasible)" in (
            capsys.readouterr().out)
        rows = (tmp_path / "o" / "empirics.csv").read_text().splitlines()[2:]
        by_name = {row.split(",")[0]: row.split(",")[3:] for row in rows}
        assert by_name["lp_value"] == ["", "lp infeasible", "2"]
        assert by_name["cost_gap"] == ["", "lp infeasible", "2"]
        assert not any("inf" in row.split(",")[3] for row in rows)

    def test_bench_sweep_bounds_match_reference(self, tmp_path):
        # the sweep of the sensor3-bound-sweep benchmark; its reference file
        # pins bounds.csv byte for byte
        reference = Path(__file__).resolve().parents[1] / "bench/reference/bounds_sweep.csv"
        doc = {"preset": "sensor3", "seed": 0, "sweep": {
            "V": [2.0, 5.0, 20.0], "w": [10, 40, 160], "D": [0, 1, 2], "s": [5, 40]}}
        p = write_doc(tmp_path, doc)
        out = tmp_path / "o"
        for stage in ("lp", "bounds"):
            assert main([stage, "--config", str(p), "--out", str(out)]) == 0
        assert (out / "bounds.csv").read_bytes() == reference.read_bytes()

    def test_empirics_reads_only_this_run_count(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        common = ["--out", out, "--horizon", "50"]
        assert main(["simulate", "--runs", "3", "--seed", "1"] + common) == 0
        assert main(["simulate", "--runs", "2", "--seed", "9"] + common) == 0
        assert main(["empirics", "--runs", "2", "--seed", "9"] + common) == 0
        assert "runs: 2," in capsys.readouterr().out
        cfg = config_from_dict({"preset": "sensor3", "horizon": 50, "runs": 2,
                                "seed": 9, "out_dir": out})
        assert np.array_equal(read_traces(cfg).m, run_ensemble(cfg, 2).m)
        # a run count past the files on disk names the first missing trace
        assert main(["empirics", "--runs", "4", "--seed", "9"] + common) == 3
        assert "trace_run0003.csv" in capsys.readouterr().err

    def test_bounds_horizon_shorter_than_its_grid(self, tmp_path, capsys):
        # sensor3 sweeps w in {10, 40} with D = 0, so w = 40 needs 42 slots
        out = str(tmp_path / "o")
        assert main(["bounds", "--out", out, "--horizon", "30"]) == 4
        err = capsys.readouterr().err
        assert "horizon 30" in err and "42 slots" in err and "D=0, w=40" in err
        assert main(["bounds", "--out", out, "--horizon", "42"]) == 0

    def test_mode_recorded_and_literal_labeled(self, tmp_path):
        out = str(tmp_path / "o")
        for cmd in (["simulate", "--runs", "2", "--horizon", "60"], ["bounds"],
                    ["empirics"], ["compare"]):
            assert main(cmd + ["--out", out, "--mode", "literal",
                               "--horizon", "60", "--runs", "2", "--seed", "3"]) == 0
        for name in ("bounds.csv", "compare.csv", "empirics.csv"):
            lines = (tmp_path / "o" / name).read_text().splitlines()
            assert lines[0] == "# mode=literal"
        compare = (tmp_path / "o" / "compare.csv").read_text().splitlines()
        data_rows = [r for r in compare[2:] if r]
        assert all(",literal," in r for r in data_rows)

    def test_read_traces_round_trip(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["simulate", "--out", out, "--runs", "3", "--horizon", "80",
                     "--seed", "9"]) == 0
        cfg = config_from_dict({"preset": "sensor3", "horizon": 80, "runs": 3,
                                "seed": 9, "out_dir": out})
        ens = read_traces(cfg)
        direct = run_ensemble(cfg, 3)
        assert np.array_equal(ens.jstar, direct.jstar)
        assert np.array_equal(ens.m, direct.m)
        # stored costs round-trip through 12-significant-digit decimal
        assert np.allclose(ens.p, direct.p, atol=1e-11)
        assert np.allclose(ens.final_avg, direct.final_avg, atol=1e-11)
        assert np.allclose(ens.q, direct.q, atol=1e-11)

    def test_compare_with_no_post_warmup_slots(self, tmp_path):
        # horizon 30 is inside the 40-slot warmup of sensor3
        out = str(tmp_path / "o")
        for cmd in ("simulate", "compare"):
            assert main([cmd, "--out", out, "--horizon", "30", "--runs", "2"]) == 0
        rows = (tmp_path / "o" / "compare.csv").read_text().splitlines()
        assert "detect_error_violation,,,,0,default,no post-warmup slots" in rows

    def test_pipeline_byte_determinism_small(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            for cmd in ("simulate", "lp", "bounds", "empirics", "compare"):
                assert main([cmd, "--out", out, "--seed", "11", "--runs", "3",
                             "--horizon", "90"]) == 0
            outs.append(Path(out))
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("field", ["schedule.limit", "covering.members[3]"])
    def test_nan_probability_exit_code(self, tmp_path, capsys, field):
        doc = dump_preset()
        if field == "schedule.limit":
            doc["schedule"]["limit"][0] = float("nan")
        else:
            doc["covering"]["members"][3][5] = "nan"
        p = write_doc(tmp_path, doc)
        assert main(["lp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"\n  {field}: non-finite probability entry nan" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["nu", "eps", "kappa", "lyapunov_cap",
                                       "covering.delta", "covering.alpha_delta",
                                       "covering.beta_delta"])
    def test_non_finite_scalar_exit_code(self, tmp_path, capsys, field, value):
        # NaN nu or covering.delta used to load and put nan in bounds.csv
        doc = dump_preset()
        block, _, key = field.rpartition(".")
        (doc[block] if block else doc)[key] = value
        p = write_doc(tmp_path, doc)
        assert main(["bounds", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--horizon", "200"]) == 2
        assert f"\n  {field}: must be finite, got {value}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("block, value, message", [
        ("covering", 5, "covering: expected an object, got 5"),
        ("cost", 5, "cost: expected an object, got 5"),
        ("schedule", 5, "schedule: expected an object, got 5"),
        ("schedule", {"kind": "piecewise", "segments": [{"a": 1}]},
         "schedule.segments[0]: expected a [start, probabilities] pair, got {'a': 1}"),
        ("covering", {"preset": "x"}, "covering: unknown key 'preset'"),
        ("cost", {"preset": "x"}, "cost: unknown key 'preset'"),
        ("schedule", {"preset": "x"}, "schedule: unknown key 'preset'"),
        ("preset", "sensor4", "preset: unknown preset 'sensor4' (known: \"sensor3\")"),
        (None, [], "<cfg>: document root must be an object"),
        ("state_space", DROP,
         "state_space/action_space: required unless a preset supplies them"),
        ("cost", DROP, "cost: required unless a preset supplies it"),
        ("cost", {"tables": None}, "cost.tables: missing"),
        ("schedule", {"kind": "bogus"},
         "schedule.kind: expected 'geometric' or 'piecewise', got 'bogus'"),
        ("covering", {"members": []}, "covering.members: expected a non-empty list, got []"),
        ("covering", {"delta": -1}, "covering: covering radius must be positive, got -1.0"),
        ("cost", {"tables": [[1.0, 2.0], [3.0, 4.0]]},
         "cost: tables must have shape (K+1, |A|, |Omega|)"),
        ("sweep", 5, "sweep: expected an object, got 5"),
    ])
    def test_malformed_block_exit_code(self, tmp_path, capsys, block, value, message):
        """The explicit preset document (no ``preset`` key) with ``block``
        replaced, merged into when ``value`` is an object, or dropped on
        ``DROP``; block None replaces the whole document."""
        doc = dump_preset()
        if block is None:
            doc = value
        elif value is DROP:
            del doc[block]
        else:
            doc[block] = {**doc[block], **value} if isinstance(value, dict) else value
        p = write_doc(tmp_path, doc)
        assert main(["lp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"\n  {message.replace('<cfg>', str(p))}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def one_user_compare(self, tmp_path, delay):
        """Exit codes of the five stages on ``ONE_USER`` at ``delay``, and the
        last column of each ``compare.csv`` row by quantity."""
        out = tmp_path / f"d{delay}"
        p = write_doc(tmp_path, {**ONE_USER, "delay": delay, "out_dir": str(out)})
        codes = [main([stage, "--config", str(p)]) for stage in PIPELINE]
        lines = (out / "compare.csv").read_text().splitlines()[2:]
        return codes, out, {line.split(",")[0]: line.split(",")[-1] for line in lines}

    def test_mixing_bound_needs_kappa_times_delay_below_log3(self, tmp_path, capsys):
        # kappa_hat is about 0.73 < log 3, but kappa_hat * D is about 1.46
        codes, out, passed = self.one_user_compare(tmp_path, delay=2)
        assert codes == [0] * len(PIPELINE)
        assert "mixing bound NOT applicable" in capsys.readouterr().out
        assert passed["kappa_hat"] == "inapplicable"
        row = next(line.split(",") for line in (out / "compare.csv").read_text().splitlines()
                   if line.startswith("kappa_hat,"))
        assert row[4] == fmt(LOG3 / 2) and float(row[3]) > LOG3 / 2  # bound is log 3 / D
        assert [passed[f"beta1_k{k}_s{s}"] for k in (0, 1) for s in (5, 40)] == [
            "inapplicable"] * 4

    def test_mixing_bound_applies_without_delay(self, tmp_path):
        codes, out, passed = self.one_user_compare(tmp_path, delay=0)
        assert codes == [0] * len(PIPELINE)
        assert passed["kappa_hat"] == "applicable"
        assert [passed[f"beta1_k{k}_s{s}"] for k in (0, 1) for s in (5, 40)] == [
            "true"] * 4
        digest = hashlib.sha256((out / "compare.csv").read_bytes()).hexdigest()
        assert digest == "d71b8c59ba875304642d45cdf2007050f51ecd4fa71c85e15ac8fc797365fb0a"

    def test_compare_finds_the_limit_member_once(self, tmp_path, monkeypatch):
        argv = ["--out", str(tmp_path / "o"), "--runs", "2", "--horizon", "60"]
        assert main(["simulate"] + argv) == 0
        nearest = simulate.nearest_member
        calls = []
        monkeypatch.setattr(simulate, "nearest_member",
                            lambda *a, **k: calls.append(1) or nearest(*a, **k))
        assert main(["compare"] + argv) == 0
        assert len(calls) == 1  # read_traces, the bound context and pe share istar

    def test_preset_dump(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["preset-dump", "--out", out]) == 0
        doc = json.loads((tmp_path / "o" / "preset_sensor3.json").read_text())
        assert doc["V"] == 20.0
        assert len(doc["covering"]["members"]) == 8

    def test_preset_dump_bytes_pinned(self, tmp_path):
        assert main(["preset-dump", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "preset_sensor3.json").read_bytes()).hexdigest()
        assert digest == "14db990a57c0e4cd3590b3d5fd11b546a7ab3e2545f4f72412f2b134237005fe"


PIPELINE = ("simulate", "lp", "bounds", "empirics", "compare")


class TestPresetOverrides:
    """A key beside ``"preset"`` replaces the preset's value of that key;
    ``sweep`` is replaced key by key."""

    def run_stages(self, tmp_path, overrides, name="cfg.json"):
        out = tmp_path / name.removesuffix(".json")
        p = write_doc(tmp_path, {"preset": "sensor3", **overrides}, name)
        codes = [main([stage, "--config", str(p), "--out", str(out), "--runs", "2",
                       "--horizon", "80"]) for stage in PIPELINE]
        return codes, out

    def test_preset_equals_the_loop_built_copy(self):
        cfg = sensor3_config()
        actions, states, cost = sensor_tables()
        assert cfg.space.actions.counts == actions.counts
        assert cfg.space.states.counts == states.counts
        assert np.array_equal(cfg.space.cost.tables, cost.tables)
        assert np.array_equal(cfg.space.cost.c, cost.c)
        assert np.array_equal(cfg.schedule.limit.probs, sensor_limit().probs)

    def test_action_space_alone_names_cost(self, tmp_path, capsys):
        codes, out = self.run_stages(tmp_path, {"action_space": [3, 3, 3]})
        assert codes == [2] * len(PIPELINE)
        err = capsys.readouterr().err
        assert err.count("\n  cost: ") == len(PIPELINE)
        assert not out.exists()

    def test_cost_alone_loads(self, tmp_path):
        codes, out = self.run_stages(tmp_path, {"cost": sensor3_document()["cost"]})
        assert codes == [0] * len(PIPELINE)
        _, base = self.run_stages(tmp_path, {}, "base.json")
        for name in ("lp.csv", "bounds.csv", "compare.csv"):
            assert (out / name).read_bytes() == (base / name).read_bytes(), name

    def test_state_space_alone_loads(self, tmp_path):
        codes, _ = self.run_stages(tmp_path, {"state_space": [4, 4, 4]})
        assert codes == [0] * len(PIPELINE)

    def test_sweep_merges_key_by_key(self, tmp_path):
        cfg = config_from_dict({"preset": "sensor3", "sweep": {"V": [1.0]}})
        base = config_from_dict({"preset": "sensor3"})
        assert cfg.v_sweep == (1.0,)
        assert (cfg.w_sweep, cfg.s_sweep, cfg.d_sweep) == (
            base.w_sweep, base.s_sweep, base.d_sweep)
        codes, out = self.run_stages(tmp_path, {"sweep": {"V": [1.0]}})
        assert codes == [0] * len(PIPELINE)
        rows = (out / "bounds.csv").read_text().splitlines()[2:]
        assert {r.split(",")[1] for r in rows} == {"1"}

    def test_empty_s_sweep_is_5_and_40(self):
        cfg = config_from_dict({"preset": "sensor3", "sweep": {"s": []}})
        assert cfg.s_sweep == (5, 40)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls", sorted(set(_subclasses(DriftlabError)), key=lambda c: c.__name__))
def test_errors_survive_pickling(cls):
    # a forked simulation worker sends its exception to the parent pickled
    errors = ["runs: must be >= 1, got 0", "seed: must be >= 0, got -1"]
    exc = cls(errors) if issubclass(cls, ConfigError) else cls(errors[0])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "errors", None) == getattr(exc, "errors", None)


@given(
    delay=st.integers(0, 6), window=st.integers(1, 50), horizon=st.integers(1, 40),
    runs=st.integers(1, 3),
)
@example(delay=6, window=8, horizon=16, runs=2)  # bounds' t-grid starts at the horizon
@example(delay=0, window=1, horizon=16, runs=1)
@seed(2026)
@settings(max_examples=12, deadline=None, database=None)
def test_delay_edges_exit_cleanly(delay, window, horizon, runs):
    """All five stages on delay/window/horizon edges, including all-warmup
    runs: an exit code in {0, 2, 3, 4}, a message on stderr for any non-zero
    exit, and never a traceback.  The empty sweep makes ``bounds`` evaluate
    the drawn window and delay; it fails only on a horizon too short for them."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"preset": "sensor3", "delay": delay, "window": window,
               "horizon": horizon, "runs": runs, "out_dir": str(Path(tmp) / "o"),
               "sweep": {"w": [], "D": []}}
        path = write_doc(Path(tmp), doc)
        for stage in PIPELINE:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([stage, "--config", str(path)])
            assert rc in (0, 2, 3, 4), (stage, rc)
            assert rc == 0 or err.getvalue().strip(), (stage, rc)
            assert "Traceback" not in err.getvalue(), stage
            if stage == "bounds":
                assert rc == 0 or "is shorter than the" in err.getvalue(), err.getvalue()


# the sensor3 document at 2 runs x 60 slots, and the values the fuzz puts in it
FUZZ_BASE = {**dump_preset(), "runs": 2, "horizon": 60}
FUZZ_VALUES = (None, 0, -1, 1.5, "x", [], {}, float("nan"), 1e308, True)
# what a stage may fail on once simulate ran: the horizon minimum, V = 0 in
# bounds, a zero-mass covering member and an LP with no optimum
PRECONDITIONS = ("is shorter than the", "V must be > 0 in the bound stack",
                 "needs strictly positive members", "no optimum")
_ROW = FUZZ_BASE["covering"]["members"][1]


@st.composite
def replacements(draw):
    """(path, value): a path into ``FUZZ_BASE`` up to a drawn depth, and a
    malformed value to put there."""
    node, path = FUZZ_BASE, []
    for _ in range(draw(st.integers(1, 5))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        path.append(key)
        node = node[key]
    return tuple(path), draw(st.sampled_from(FUZZ_VALUES))


@given(st.lists(replacements(), min_size=1, max_size=2))
# member 1 moves its mass on outcome 1 onto outcome 0
@example([(("covering", "members", 1, 0), _ROW[0] + _ROW[1]),
          (("covering", "members", 1, 1), 0.0)])
@example([(("cost", "constraints"), [-1.0, -1.0, -1.0])])
@example([(("V",), 0), (("sweep", "V"), [])])
# both loaded once, then raised past the CLI's handlers
@example([(("delay",), 1e308)])
@example([(("runs",), 1e308)])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_malformed_documents_exit_cleanly(changes):
    """The sensor3 document with one or two values replaced: it loads or is
    refused with a ``ConfigError``; every stage exits 0, 2, 3 or 4 with a
    message on stderr for a non-zero exit; and once ``simulate`` succeeded,
    a stage fails only on a documented precondition."""
    doc = copy.deepcopy(FUZZ_BASE)
    for path, value in changes:
        # a path that the other change cut is skipped
        with contextlib.suppress(KeyError, IndexError, TypeError):
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
    with contextlib.suppress(ConfigError):
        config_from_dict(copy.deepcopy(doc))
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["--config", str(write_doc(Path(tmp), doc)), "--out", str(Path(tmp) / "o")]
        simulated = False
        for stage in PIPELINE:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([stage] + argv)
            assert rc in (0, 2, 3, 4), (stage, rc)
            assert rc == 0 or err.getvalue().strip(), (stage, rc)
            if simulated:
                assert rc == 0 or any(m in err.getvalue() for m in PRECONDITIONS), (
                    stage, err.getvalue())
            simulated = simulated or (stage == "simulate" and rc == 0)
