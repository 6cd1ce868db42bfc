"""Trace CSV writer and reader against straightforward references.

``write_trace`` formats a column and a chunk of slots at a time; its bytes
must equal a row-by-row ``fmt`` write.  ``read_traces`` arrays must equal a
plain ``np.loadtxt`` parse.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftlab.cli import (
    fmt, main, read_traces, trace_columns, trace_path, write_csv, write_trace,
)
from driftlab.config import config_from_dict, read_config
from driftlab.simulate import RunTrace


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


P_VALUES = [0.0, -0.0, 1.0, -1 / 3, 0.1 + 0.2, 5e-324, -1.0]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    T = draw(st.integers(1, 1100))  # crosses the 512-slot chunk edges
    K = draw(st.integers(0, 3))
    ints = st.integers(0, 4095)
    return RunTrace(
        omega=draw(arrays(np.int64, T, elements=ints)),
        jstar=draw(arrays(np.int64, T, elements=ints)),
        m=draw(arrays(np.int64, T, elements=ints)),
        p=draw(arrays(np.float64, (T, K + 1), elements=st.sampled_from(P_VALUES))),
        q=draw(arrays(np.float64, (T, K), elements=FINITE)),
    )


@given(traces(), st.sampled_from(["default", "literal"]))
@settings(max_examples=60, deadline=None)
def test_write_trace_equals_row_by_row_fmt(tmp_path_factory, trace, mode):
    d = tmp_path_factory.mktemp("trace")
    write_trace(d / "fast.csv", trace, mode)
    reference_write(d / "ref.csv", trace, mode)
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
