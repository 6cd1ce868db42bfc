"""What the benchmark uses of the program must exist in it.

``bench/tracer.patched`` replaces ``vars(owner)[attr]`` for each target that
``Workload.program_calls`` lists, so a refactor that drops or renames one of
those names makes every traced benchmark run fail.  The workloads also load
their documents with ``config_from_dict`` and run the loaded config as a
``SimConfig``.
"""

import ast
from pathlib import Path

from driftlab import cli
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
        assert isinstance(cfg.window, int), name  # w_at, the replay's window, is the loop's
        cfg.validate()


def cli_names_read_by_bench() -> set[str]:
    """Every ``cli.<name>`` in ``bench/*.py``, and every ``(cli, "<name>", ...)``
    patch target."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "cli":
                    names.add(node.attr)
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                owner, attr = node.elts[:2]
                if (isinstance(owner, ast.Name) and owner.id == "cli"
                        and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                    names.add(attr.value)
    return names


def test_every_cli_name_the_bench_reads_exists():
    names = cli_names_read_by_bench()
    assert {"main", "fmt", "lipschitz_probe"} <= names
    assert sorted(name for name in names if not hasattr(cli, name)) == []
