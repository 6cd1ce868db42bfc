"""What the benchmark uses of the program must exist in it.

``bench/tracer.patched`` replaces ``vars(owner)[attr]`` for each target that
``Workload.program_calls`` lists, so a refactor that drops or renames one of
those names makes every traced benchmark run fail.  The workloads also load
their documents with ``config_from_dict`` and run the loaded config as a
``SimConfig``.
"""

from pathlib import Path

from driftlab.config import config_from_dict
from driftlab.simulate import SimConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_patch_target_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import Workload

    targets = Workload(0, True).program_calls()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in vars(owner)
    ]
    assert targets and not missing


def test_every_workload_config_loads_and_runs_as_a_sim_config(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        cfg = config_from_dict(workload(0, True).doc(), source=name)
        assert isinstance(cfg, SimConfig), name
        cfg.validate()
