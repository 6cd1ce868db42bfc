"""Golden pins: SHA-256 digests of the integer streams (omega, jstar, m),
of the trace CSVs that ``simulate`` writes, and of every file the five
pipeline stages write.

The streams are hashed run by run as little-endian int32, so the digests
hold across BLAS builds.  A refactor of the control loop must leave them
unchanged; a change that alters a stream has to re-pin here and say so.
The CSV pins hold the writer to its bytes, ``-0`` cells included.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from _helpers import sensor3_covering_and_schedule, sensor3_space
from driftlab import simulate
from driftlab.cli import main
from driftlab.distributions import PiecewiseSchedule
from driftlab.simulate import RUN_BLOCK, SimConfig, run_ensemble

BLOCK_CROSSING_RUNS = 18
BLOCK_CROSSING_PASS_ROWS = 16  # in-process, 18 runs at D = 0 make two blocks


def _sensor3(**kw) -> SimConfig:
    space = sensor3_space()
    cov, sch = sensor3_covering_and_schedule()
    values = dict(space=space, schedule=sch, covering=cov, V=20.0, D=0,
                  window=40, horizon=120, seed=1)
    values.update(kw)
    return SimConfig(**values)


def _piecewise(cfg: SimConfig) -> PiecewiseSchedule:
    members = cfg.covering.members
    return PiecewiseSchedule(
        limit=members[0],
        segments=((0, members[3]), (30, members[5]), (70, members[0])),
    )


def stream_digest(cfg: SimConfig, n_runs: int) -> str:
    h = hashlib.sha256()

    def add(i, trace):
        for a in (trace.omega, trace.jstar, trace.m):
            h.update(np.ascontiguousarray(a, dtype="<i4").tobytes())

    run_ensemble(cfg, n_runs, on_trace=add, store_runs=False)
    return h.hexdigest()


def _cases():
    base = _sensor3()
    return {
        "sensor3-d0": (base, 3),
        "sensor3-d2-piecewise": (
            _sensor3(D=2, window=20, schedule=_piecewise(base), seed=7), 3,
        ),
        "block-crossing": (_sensor3(horizon=60, seed=5), BLOCK_CROSSING_RUNS),
        # 121 = 40 * 3 + 1: the loop's last D+1-slot pass holds one slot
        "short-last-pass": (_sensor3(D=2, window=20, horizon=121, seed=9), 3),
    }


GOLDEN = {
    "sensor3-d0":
        "a4ebc12e057b14a17ab322f82ce08ecd24b89cc077c7548c3bab1b3b5ccc440e",
    "sensor3-d2-piecewise":
        "565e3f1cd76a582644ee7344079bb63b070e74269e777d2eb3e626602c41fdd4",
    "block-crossing":
        "a4c56559f4b718b3c2659671cbb391e48b5bd3838d2b2d2653831a57aa8e1263",
    "short-last-pass":
        "6380cc3c33a83356efe4bc00759b0e1a8708bb7789d0db82a4032434674cfdc9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_digest(name, monkeypatch):
    # every case runs in-process, so block-crossing crosses a block here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(simulate, "PASS_ROWS", BLOCK_CROSSING_PASS_ROWS)
    cfg, n_runs = _cases()[name]
    assert stream_digest(cfg, n_runs) == GOLDEN[name]


def test_block_crossing_digest_on_two_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg, n_runs = _cases()["block-crossing"]
    assert simulate._worker_count(n_runs) == 2
    assert stream_digest(cfg, n_runs) == GOLDEN["block-crossing"]


def test_block_crossing_case_crosses_a_block(monkeypatch):
    monkeypatch.setattr(simulate, "PASS_ROWS", BLOCK_CROSSING_PASS_ROWS)
    cfg, n_runs = _cases()["block-crossing"]
    assert RUN_BLOCK < n_runs  # two workers in test_block_crossing_digest_on_two_workers
    assert len(simulate._partition(n_runs, 1, cfg.D)) == 2


TRACE_GOLDEN = {  # 2 runs x 1200 slots of the sensor3 preset
    "d0": ({}, {
        "trace_run0000.csv":
            "fb9f95897285411e45a428cd6bf909f455e3d7b49c2a988d9501a7bce035f47c",
        "ensemble.csv":
            "797b57dd19b20557da49fbcd1bc5d31c94e5718dc04e82bd778657f2f032f508",
    }),
    "d2-w120": ({"delay": 2, "window": 120}, {
        "trace_run0000.csv":
            "1b93019090f1f32b9ea2f54af12371bcd0c32cc4ee2fc97afe8a5d50087badec",
        "ensemble.csv":
            "2aa50f5396f7a62cbb2d58cc5aaa4041a1f5c7f8a50335e6cf2bec3ead9e141f",
    }),
}


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_trace_csv_digest(name, tmp_path):
    overrides, pins = TRACE_GOLDEN[name]
    doc = {"preset": "sensor3", "runs": 2, "horizon": 1200, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in pins}
    assert digests == pins


OUTPUT_DIR_GOLDEN = {  # sensor3, --runs 4 --horizon 400 --seed 5
    "bounds.csv":
        "2288f6560a14dfd57b51992216ce828fe9eff35d8627791c0ee4656c0a7f31b1",
    "compare.csv":
        "fad7a435de42e2aad04df54bd15a835e2734194d0be1cad031856e6ea16c8bf0",
    "empirics.csv":
        "28a8d6f4f57646dfb52f7740f01d2d38d589f6df5af24d7ac09bb9013f92bf06",
    "ensemble.csv":
        "304fbe1d34748e78ac1b87c3263f1a9df284d9a580909c5aeaaf8cabb6da881a",
    "error_rates.csv":
        "d468e68afbea12db78bd6194766cc91dd73f006c374f1580a969ef78543015e7",
    "lp.csv":
        "b1cb4c3ca16606e8c1de60bf0f0efe3ec9591a0d7457fcc248f730d0f8b9c79c",
    "trace_run0000.csv":
        "5968df6c5d2489100d77139ce7cc9d347803705b070f1ecbae89ccbf92aa44cf",
    "trace_run0001.csv":
        "34bb9f87a6f9c4a0ab431c433830c8bcd81c190037fde10898e47bdc6980ea6e",
    "trace_run0002.csv":
        "fcc8e3e6c0e87cb8a9093eddd3922f1eccd638d071fbf778d195501037abfd49",
    "trace_run0003.csv":
        "f027862faafe372366f4e86ca9f8bdbdd311cb3ffa6ac7907eede32a3b839d14",
}


def test_output_dir_digest(tmp_path):
    out = tmp_path / "out"
    for stage in ("simulate", "lp", "bounds", "empirics", "compare"):
        assert main([stage, "--out", str(out), "--runs", "4", "--horizon", "400",
                     "--seed", "5"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == OUTPUT_DIR_GOLDEN
