"""CSV writers and the trace reader against straightforward references.

``write_trace``, ``ensemble.csv`` and ``error_rates.csv`` format
``TRACE_CHUNK`` rows at a time through one ``%`` row template; their bytes
must equal a row-by-row ``fmt`` write, as must ``write_csv``'s.
``read_traces`` arrays must equal a plain ``np.loadtxt`` parse.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftlab.cli import (
    TRACE_CHUNK, _numeric_lines, _write_lines, fmt, main, read_traces, trace_columns,
    trace_path, write_csv, write_trace,
)
from driftlab.config import config_from_dict, read_config
from driftlab.estimators import error_rate
from driftlab.simulate import RunTrace, run_ensemble


def reference_csv(path, mode, columns, rows):
    """One row at a time through ``fmt``: the writers' byte contract."""
    lines = [f"# mode={mode}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def reference_write(path, trace, mode):
    K = trace.q.shape[1]
    rows = (
        [t, int(trace.omega[t]), int(trace.jstar[t]), int(trace.m[t])]
        + [trace.p[t, k] for k in range(K + 1)]
        + [trace.q[t, k] for k in range(K)]
        + [trace.avg[t, k] for k in range(K + 1)]
        for t in range(trace.horizon)
    )
    reference_csv(path, mode, trace_columns(K), rows)


SPECIAL = [np.nan, np.inf, -np.inf, -0.0]
P_VALUES = [0.0, 1.0, -1 / 3, 0.1 + 0.2, 5e-324, -1.0] + SPECIAL
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())


@st.composite
def traces(draw):
    T = draw(st.integers(1, 2 * TRACE_CHUNK + 76))  # crosses the chunk edges
    K = draw(st.integers(0, 3))
    ints = st.integers(0, 4095)
    return RunTrace(
        omega=draw(arrays(np.int64, T, elements=ints)),
        jstar=draw(arrays(np.int64, T, elements=ints)),
        m=draw(arrays(np.int64, T, elements=ints)),
        p=draw(arrays(np.float64, (T, K + 1), elements=st.sampled_from(P_VALUES))),
        q=draw(arrays(np.float64, (T, K), elements=FLOATS)),
    )


@given(traces(), st.sampled_from(["default", "literal"]))
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:invalid value")  # inf - inf in the running averages
def test_write_trace_equals_row_by_row_fmt(tmp_path_factory, trace, mode):
    d = tmp_path_factory.mktemp("trace")
    write_trace(d / "fast.csv", trace, mode)
    reference_write(d / "ref.csv", trace, mode)
    assert (d / "fast.csv").read_bytes() == (d / "ref.csv").read_bytes()


@st.composite
def tables(draw):
    """The ``ensemble.csv`` layout (one (T, K+1) array) or the
    ``error_rates.csv`` layout (two (T,) arrays)."""
    T = draw(st.integers(1, 2 * TRACE_CHUNK + 76))
    if draw(st.booleans()):
        K = draw(st.integers(0, 3))
        return ["t"] + [f"mean_p{k}" for k in range(K + 1)], [
            draw(arrays(np.float64, (T, K + 1), elements=FLOATS))]
    return ["t", "rate", "ci_half"], [
        draw(arrays(np.float64, T, elements=FLOATS)) for _ in range(2)]


@given(tables())
@settings(max_examples=30, deadline=None)
def test_numeric_tables_equal_row_by_row_fmt(tmp_path_factory, case):
    columns, arrays_ = case
    d = tmp_path_factory.mktemp("table")
    _write_lines(d / "fast.csv", "default", columns, _numeric_lines(0, arrays_))
    flat = np.column_stack(arrays_).tolist()
    reference_csv(d / "ref.csv", "default", columns, ([t] + row for t, row in enumerate(flat)))
    assert (d / "fast.csv").read_bytes() == (d / "ref.csv").read_bytes()


CELLS = st.one_of(st.booleans(), st.integers(-5, 5), st.none(), st.sampled_from(["", "a"]),
                  FINITE, st.sampled_from([np.int32(3), np.float64(-0.0), np.bool_(True)]))


@st.composite
def csv_rows(draw):
    width = draw(st.integers(1, 4))
    n = draw(st.integers(0, 1100))  # crosses the 512-row chunk edges
    row = st.lists(CELLS, min_size=width, max_size=width)
    return width, draw(st.lists(row, min_size=n, max_size=n))


@given(csv_rows())
@settings(max_examples=15, deadline=None)
def test_write_csv_equals_row_by_row_fmt(tmp_path_factory, case):
    width, rows = case
    d = tmp_path_factory.mktemp("csv")
    columns = [f"c{j}" for j in range(width)]
    write_csv(d / "fast.csv", "literal", columns, rows)
    reference_csv(d / "ref.csv", "literal", columns, rows)
    assert (d / "fast.csv").read_bytes() == (d / "ref.csv").read_bytes()


def test_negative_zero_keeps_its_sign(tmp_path):
    p = np.array([[0.0], [-0.0], [0.0], [-0.0]])
    trace = RunTrace(
        omega=np.zeros(4, dtype=np.int64), jstar=np.zeros(4, dtype=np.int64),
        m=np.zeros(4, dtype=np.int64), p=p, q=np.zeros((4, 0)),
    )
    write_trace(tmp_path / "t.csv", trace, "default")
    rows = (tmp_path / "t.csv").read_text().splitlines()[2:]
    assert [r.split(",")[4] for r in rows] == ["0", "-0", "0", "-0"]


def test_ensemble_and_error_rate_files_equal_row_by_row_fmt(tmp_path):
    """The files ``simulate`` and ``empirics`` write, against the same values
    computed in-process, over a horizon that crosses two chunk edges."""
    out = tmp_path / "o"
    doc = {"preset": "sensor3", "runs": 2, "horizon": 2 * TRACE_CHUNK + 6, "seed": 3,
           "out_dir": str(out)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["empirics", "--config", str(path)]) == 0
    cfg = config_from_dict(read_config(path), source=str(path))
    K = cfg.space.cost.n_penalties
    mean_p = run_ensemble(cfg, cfg.runs).mean_p
    columns = ["t"] + [f"mean_p{k}" for k in range(K + 1)]
    reference_csv(tmp_path / "ensemble.csv", cfg.mode, columns,
                  ([t] + row for t, row in enumerate(mean_p.tolist())))
    rates = error_rate(read_traces(cfg))
    reference_csv(tmp_path / "error_rates.csv", cfg.mode, ["t", "rate", "ci_half"],
                  zip(range(cfg.horizon), rates.per_slot.tolist(), rates.ci_half().tolist()))
    for name in ("ensemble.csv", "error_rates.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_read_traces_equals_full_parse(tmp_path):
    doc = {"preset": "sensor3", "runs": 3, "horizon": 700, "delay": 2,
           "window": 120, "seed": 5, "out_dir": str(tmp_path / "o")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == 0
    cfg = config_from_dict(read_config(path), source=str(path))
    K = cfg.space.cost.n_penalties
    ens = read_traces(cfg)
    for i in range(cfg.runs):
        full = np.loadtxt(trace_path(tmp_path / "o", i), delimiter=",", skiprows=2)
        assert ens.jstar[i].tobytes() == full[:, 2].astype(np.int32).tobytes()
        assert ens.m[i].tobytes() == full[:, 3].astype(np.int32).tobytes()
        assert ens.p[i].tobytes() == full[:, 4 : 5 + K].tobytes()
        assert ens.q[i].tobytes() == full[:, 5 + K : 5 + 2 * K].tobytes()
        assert ens.final_avg[i].tobytes() == full[-1, 5 + 2 * K :].tobytes()
