"""Output checks: stream and output digests, the queue invariant, the LP
optimum, the bounds reference and byte-identical output directories."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BOUNDS_REFERENCE = HERE / "reference" / "bounds_sweep.csv"

# The sensor3 LP optimum as `lp.csv` prints it (12 significant digits).
LP_OPTIMUM = "-0.394666666667"

# The pipeline outputs the second pin covers: what `empirics` and `compare`
# compute from the traces.
PIPELINE_OUTPUTS = ("empirics.csv", "error_rates.csv", "compare.csv")
# Significant digits a value keeps in an output digest: a change in the last
# of the 12 printed digits (summation order, say) keeps the pin.
DIGEST_DIGITS = 9

# Pins keyed by (workload, size), then by seed: SHA-256 of the integer
# streams (omega, jstar, m) as int32, run after run, and ``values_digest``
# of the outputs computed from them (the pipeline's PIPELINE_OUTPUTS, the
# ensemble's estimator results).  Taken at the commit that added the
# benchmark.  A change that alters a stream or an estimate must re-pin here
# and say so.
PINS: dict[tuple[str, str], dict[int, tuple[str, str]]] = {
    ('sensor3-pipeline', 'standard'): {
        0: ("6339c047358cfbcf6e40b861903d0dfa0a2add52ff2e1598c6e05f553d994e90",
            "9ae1db02c9069dd90183c7c234853efcbb7d7c65679630a6e1abd88f6618bd06"),
        1: ("a0d8c65cbf3af4f5ee3045958afdd5fa59c74abd77ee2bd004a1c19e8cd113e9",
            "580ffbd286b4c24e2ac262c66ef8caca5ceb59ecd117d60f33837969e128eb3c"),
        2: ("6c2457c1001322b689406358e4f9d37e665b8066ef01d4dd01ecbf7a445b9d11",
            "52d2f50fec932eef7e60657f1e5edc71afe842a6f3e146e23c45fbb7abd71fe7"),
        3: ("217e32325e6715db576f02b47b98bb3f9a795dabce2bc0d5c947fc32dcdd32c1",
            "766ac7a073b3bd69a7d54ba3e97eee53920403d67efe8c046ea15c803f3e8882"),
        4: ("5d4fca8501dd3e3a13dbfb4800d59d443ff44253b0da42a0fe5c9f58a48f64ae",
            "1193580242fa9c25bace36bfd5d0678fd9143f0fb87c7e37956204c71d647131"),
        5: ("d2bf69fd4940410468b50e7549d7b76ab3e87345696a1f6eb1ddeda57befef09",
            "4f955986686f185d4dfbf79a507505d6d51c762aca8bcf5454b7eb4cb054a12a"),
        6: ("06b6da5fd45bb5fa2b69b1e36e82ab637175002338979ac7e258f2aaa91bde88",
            "af21231cb950f2c1194e11578d4b08d112c51a8c0d75e040c5604283a88d8b75"),
        7: ("4c87fec07344b51f1dbc8cf24d14c9819188d94f0851314c72f9ca94c5debb70",
            "d64bc6cbbd1024092399eeff6b06b1dfb8178a699530f89eb6d763f86108ab19"),
        8: ("de9ff0a8bf8d5f0a09eb39ef14c1f3c6f933c7e07919ad1e10a5380e33fcee69",
            "13a8054725e02ac6f03f530d541964c9a823f16659006875a3b8795b62cb18fc"),
        9: ("421ea39420e3c3e60bdcf6819da81f1e9aab85a230c1d8a78f9ebc293da80ea1",
            "3c64350ab74eddd249af1ffe2df2afe05fb0627a3d12143f09c2ae4c309ce1fb"),
    },
    ('piecewise-delay-ensemble', 'standard'): {
        0: ("8447bbc95ff65bc568517d8388e92b1cee0fed88d4d4eb56660bc6aee7e5d238",
            "a042849f535a7b013810f0f8880872c585e4148891e0b6ebb818abb222e4600f"),
        1: ("fc623b6b5527d4c7bec2122441f4edfe5f1a24d7291b94929201de697c1d9a48",
            "a51b5b703e2bac333485136d1e026443d6a59454955fcd768351f937b1ab556f"),
        2: ("48554d77c60dce7dea142a8c1ebc31f858a3315e45ce2a3b8b642d52f02326ab",
            "14c873761799e3517673db8a48f6147c3992733cfb5ac323e1d876b63dfc65af"),
        3: ("4c5879ac73c92f2a27bb540f1a167f9080ff86e69401100b9aa0c1fa84f44bdb",
            "68d2f493ff0cfd116ab5cd4529a8ce6ca4ba6faefa97e3870a6262fd3cd94e42"),
        4: ("dbbb0accb07867ca3c58a8a70c26099fe9d65299b3898f9a366f0cfdea8cb560",
            "1f498a8c7de8e1f28c55b283aaacff0929cbf9c92cacd0953126a41cb44290ee"),
        5: ("f100ba3625a7bfde94639f3924f461a664ed67f8fe3be79eeab02e462f352533",
            "93948e411abed5fd4906f9fbe2a9ef16aca35aeaba2b870ba1d774b1e452ff6e"),
        6: ("9d582835d17114182e6dbe2e309bec2ba0ea96bac136e54414d969158d1394fc",
            "2b27739559232024615cacdbdcfa6eccd2c35fe3f55c75550525734431af8274"),
        7: ("42f6feb66a78c711b281e2ebf496f415ae45bab1b02aab10c6a885404f9e5967",
            "1845bde7a7090ae203a1067f9078f196be8eda56d744655b6bd60fda017c459a"),
        8: ("68fe5998fc42e70754755fba9ac768ed0e424cba889b31495411cf8b89df54c5",
            "32ca34fb6fc69b2334eceaabfac095294b2e7bc83d5616989e4268b5489e694e"),
        9: ("0538cae267df05096e41d93508d549ed9071c8a25a8a36b312c8b24a0109d0cb",
            "9d2b4dad5e4fe07cf09a342e45133cc03256bd4445b9ab08e10e8692fb24558d"),
    },
    ('sensor3-pipeline', 'tiny'): {
        0: ("9c0dc0c644df0f0dcd48536395a9c42635cc4fc342a17bcef6d69aafb4cc9495",
            "e5ec8cbc6f732c91b7563da433e2dd5ca485d93d8d316aa25fc3763132b508a3"),
    },
    ('piecewise-delay-ensemble', 'tiny'): {
        0: ("4ef7e55374ea5a7773210f3bfa0f943a20ca30247ce2ab8c8c27e36ae7942567",
            "3889d4b7bec5d820a93ae42a03a4d4bd5d00e98eef8eeab1738c4e64f1125c96"),
    },
}
BOUNDS_KEY = ("t", "V", "D", "w")
BOUNDS_RTOL = 1e-9
BOUNDS_ATOL = 1e-12


class StreamDigest:
    """Incremental SHA-256 over per-run (omega, jstar, m) int32 streams."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, omega, jstar, m) -> None:
        for a in (omega, jstar, m):
            self._h.update(np.ascontiguousarray(a, dtype="<i4").tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def pin(workload: str, size: str, seed: int) -> tuple[str, str] | None:
    return PINS.get((workload, size), {}).get(seed)


def _canonical(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), f".{DIGEST_DIGITS}g")


def values_digest(rows) -> str:
    """SHA-256 of rows of values, every number rounded to DIGEST_DIGITS
    significant digits."""
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(_canonical(v) for v in row) + "\n").encode())
    return h.hexdigest()


def _csv_field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def csv_values_digest(paths) -> str:
    """``values_digest`` of CSV files, one after another."""
    def rows():
        for path in paths:
            yield [path.name]
            for line in path.read_text().splitlines():
                yield [_csv_field(f) for f in line.split(",")]
    return values_digest(rows())


def queue_invariant_holds(q: np.ndarray, p_max: np.ndarray, c: np.ndarray) -> bool:
    """Acceptance criterion 4: 0 <= Q_k(t) <= t (p_max,k - c_k), t from 1.

    ``q`` is (runs, T, K) of queues after each slot's update."""
    cap = np.arange(1, q.shape[1] + 1)[:, None] * (p_max[1:] - c)
    return bool(np.all(q >= 0) and np.all(q <= cap[None] + 1e-9))


def trace_streams(out: Path, K: int):
    """(omega, jstar, m, q) of each trace CSV of an output dir, one file at
    a time."""
    for path in sorted(out.glob("trace_run*.csv")):
        data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        omega, jstar, m = data[:, 1:4].astype(np.int64).T
        yield omega, jstar, m, data[:, 5 + K : 5 + 2 * K]


def lp_value_matches(lp_csv: Path) -> bool:
    for line in lp_csv.read_text().splitlines():
        if line.startswith("value,"):
            return line.split(",")[2] == LP_OPTIMUM
    return False


def _read_bounds(path: Path) -> tuple[list[str], dict[tuple, list[str]]]:
    with path.open() as fh:
        lines = [l for l in fh if not l.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    idx = [header.index(k) for k in BOUNDS_KEY]
    rows = {}
    for row in reader:
        rows[tuple(float(row[i]) for i in idx)] = row
    return header, rows


def _field_matches(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return bool(np.isclose(x, y, rtol=BOUNDS_RTOL, atol=BOUNDS_ATOL, equal_nan=True))


def bounds_match_reference(bounds_csv: Path, exact_rows: bool) -> bool:
    """Every row of ``bounds_csv`` equals the reference row with the same
    (t, V, D, w) within a relative 1e-9; with ``exact_rows`` the two files
    must also hold the same set of rows."""
    header, rows = _read_bounds(bounds_csv)
    ref_header, ref_rows = _read_bounds(BOUNDS_REFERENCE)
    if header != ref_header or not rows:
        return False
    if exact_rows and rows.keys() != ref_rows.keys():
        return False
    for key, row in rows.items():
        ref = ref_rows.get(key)
        if ref is None or len(ref) != len(row):
            return False
        if not all(_field_matches(a, b) for a, b in zip(row, ref)):
            return False
    return True


def bounds_row_count(bounds_csv: Path) -> int:
    return len(_read_bounds(bounds_csv)[1])


def dir_digest(out: Path) -> dict[str, str]:
    """SHA-256 of every regular file in an output directory, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def pareto_share(r_table: np.ndarray, chunk: int = 256) -> float:
    """Share of strategies that no lower-index strategy weakly dominates.

    Strategy m is dominated when some m' < m has r(m') <= r(m) in every
    coordinate of the (K+1, F) table; only the others can be a
    drift-plus-penalty argmin with lowest-index ties.
    """
    F = r_table.shape[1]
    kept = 0
    idx = np.arange(F)
    for lo in range(0, F, chunk):
        hi = min(lo + chunk, F)
        le = np.all(r_table[:, None, :] <= r_table[:, lo:hi, None], axis=0)
        le &= idx[None, :] < idx[lo:hi, None]
        kept += int((~le.any(axis=1)).sum())
    return kept / F
