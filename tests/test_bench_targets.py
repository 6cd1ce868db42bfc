"""The names the benchmark's tracer swaps must exist in the program.

``bench/tracer.patched`` replaces ``vars(owner)[attr]`` for each target that
``Workload.program_calls`` lists, so a refactor that drops or renames one of
those names makes every traced benchmark run fail.
"""

from pathlib import Path

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
