"""Trace CSV writer and reader against straightforward references.

``write_trace`` formats a column and a chunk of slots at a time; its bytes
must equal a row-by-row ``fmt`` write.  ``read_traces`` parses only the
columns it uses; its arrays must equal a full ``np.loadtxt`` parse.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftlab import cli
from driftlab.cli import (
    main, read_traces, trace_columns, trace_path, write_csv, write_trace,
)
from driftlab.config import load_config
from driftlab.simulate import RunTrace


def reference_write(path, trace, mode):
    """One row at a time through ``fmt``: the writer's byte contract."""
    K = trace.q.shape[1]
    rows = (
        [t, int(trace.omega[t]), int(trace.jstar[t]), int(trace.m[t])]
        + [trace.p[t, k] for k in range(K + 1)]
        + [trace.q[t, k] for k in range(K)]
        + [trace.avg[t, k] for k in range(K + 1)]
        for t in range(trace.horizon)
    )
    write_csv(path, mode, trace_columns(K), rows)


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
        warmup=np.zeros(T, dtype=bool),
        m=draw(arrays(np.int64, T, elements=ints)),
        p=draw(arrays(np.float64, (T, K + 1), elements=st.sampled_from(P_VALUES))),
        q=draw(arrays(np.float64, (T, K), elements=FINITE)),
        avg=draw(arrays(np.float64, (T, K + 1), elements=FINITE)),
    )


@given(traces(), st.sampled_from(["default", "literal"]))
@settings(max_examples=60, deadline=None)
def test_write_trace_equals_row_by_row_fmt(tmp_path_factory, trace, mode):
    d = tmp_path_factory.mktemp("trace")
    write_trace(d / "fast.csv", trace, mode)
    reference_write(d / "ref.csv", trace, mode)
    assert (d / "fast.csv").read_bytes() == (d / "ref.csv").read_bytes()


def test_negative_zero_keeps_its_sign(tmp_path):
    p = np.array([[0.0], [-0.0], [0.0], [-0.0]])
    trace = RunTrace(
        omega=np.zeros(4, dtype=np.int64), jstar=np.zeros(4, dtype=np.int64),
        warmup=np.zeros(4, dtype=bool), m=np.zeros(4, dtype=np.int64),
        p=p, q=np.zeros((4, 0)), avg=p.copy(),
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
    cfg = load_config(path)
    K = cfg.space.cost.n_penalties
    ens = read_traces(cfg)
    for i in range(cfg.runs):
        full = np.loadtxt(trace_path(tmp_path / "o", i), delimiter=",", skiprows=2)
        assert ens.jstar[i].tobytes() == full[:, 2].astype(np.int32).tobytes()
        assert ens.m[i].tobytes() == full[:, 3].astype(np.int32).tobytes()
        assert ens.p[i].tobytes() == full[:, 4 : 5 + K].tobytes()
        assert ens.q[i].tobytes() == full[:, 5 + K : 5 + 2 * K].tobytes()
        assert ens.final_avg[i].tobytes() == full[-1, 5 + 2 * K :].tobytes()


def test_last_fields_of_a_long_last_line(tmp_path):
    path = tmp_path / "t.csv"
    last = ",".join(str(v) for v in range(2000))  # longer than the first read
    path.write_text("# mode=default\nh\n1,2\n" + last + "\n")
    assert cli._last_fields(path) == last.encode().split(b",")
    path.write_text("7,8\n")
    assert cli._last_fields(path) == [b"7", b"8"]
