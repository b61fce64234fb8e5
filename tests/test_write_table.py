"""The float formatter of every output file: each cell ``write_table`` and
``_cells`` give is byte for byte ``repr(float(cell))``, whether the numpy
kernel or ``repr`` itself writes it."""
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import smctune as st
from smctune import output
from smctune.output import _cells, write_table
from conftest import reference_trace_csv


def _oracle(header: str, table: np.ndarray) -> bytes:
    rows = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    return (header + "\n" + rows).encode()


def _write(path, table: np.ndarray) -> bytes:
    # a 1-D column, then the rest as one 2-D column, as the trace passes t and z
    columns = [table[:, 0]] + ([table[:, 1:]] if table.shape[1] > 1 else [])
    write_table(path, "h", columns)
    return path.read_bytes()


def _neighbours(x: float, ulps: int = 2) -> list[float]:
    out = [x]
    for _ in range(ulps):
        out = [math.nextafter(out[0], -math.inf)] + out + [math.nextafter(out[-1], math.inf)]
    return out


# the edges of the kernel's fast path: powers of two, integers and halves,
# the switch to exponent notation (1e-4, 1e16), 2^53 and the kernel's own
# bounds 2^-32 and 2^50, subnormals, signed zeros, infinities and nan
_EDGES = sorted({
    *[2.0 ** k for k in range(-1074, 1024, 7)], *[2.0 ** k for k in range(-40, 60)],
    *[float(k) for k in range(-20, 21)], *[k + 0.5 for k in range(-20, 20)],
    3.0 * 2.0 ** 49, 12345.0, 1e15, 1e15 + 0.5,
    *_neighbours(1e-4), *_neighbours(1e16), *_neighbours(2.0 ** 53),
    *_neighbours(2.0 ** -32), *_neighbours(2.0 ** 50), *_neighbours(1e-10),
    5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    -0.0, 0.0, math.inf, -math.inf}, key=repr) + [math.nan]
_BITS = hst.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


def _table(rows: int, cols: int, seed: int, drawn: list[float]) -> np.ndarray:
    """Random doubles, mostly near the fast range, with ``drawn`` values at
    random cells."""
    rng = np.random.default_rng(seed)
    exponent = rng.integers(980, 1085, size=(rows, cols), dtype=np.uint64)
    bits = ((rng.integers(0, 2, size=(rows, cols), dtype=np.uint64) << np.uint64(63))
            | (exponent << np.uint64(52))
            | rng.integers(0, 2 ** 52, size=(rows, cols), dtype=np.uint64))
    anywhere = rng.random((rows, cols)) < 0.1
    bits[anywhere] = rng.integers(0, 2 ** 64, size=int(anywhere.sum()), dtype=np.uint64)
    table = bits.view(np.float64)
    cells = rng.integers(0, rows * cols, size=len(drawn))
    table.reshape(-1)[cells] = drawn
    return table


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cols=hst.sampled_from([1, 5, 8]),
       rows=hst.integers(1, 40) | hst.integers(output.CSV_BLOCK_ROWS - 2, 2 * output.CSV_BLOCK_ROWS + 3),
       seed=hst.integers(0, 2 ** 32 - 1),
       drawn=hst.lists(hst.sampled_from(_EDGES) | _BITS, max_size=60))
def test_write_table_is_repr_of_each_cell(tmp_path, cols, rows, seed, drawn):
    table = _table(rows, cols, seed, drawn)
    assert _write(tmp_path / "t.csv", table) == _oracle("h", table)


@settings(max_examples=60, deadline=None)
@given(cols=hst.sampled_from([1, 6, 18]),
       rows=hst.integers(0, 40) | hst.integers(output.CSV_BLOCK_ROWS - 2, 2 * output.CSV_BLOCK_ROWS + 3),
       seed=hst.integers(0, 2 ** 32 - 1),
       drawn=hst.lists(hst.sampled_from(_EDGES) | _BITS, max_size=60))
def test_cells_are_repr_of_each_cell(cols, rows, seed, drawn):
    table = _table(rows, cols, seed, drawn[:rows * cols])
    assert _cells(table) == [repr(cell) for cell in table.ravel().tolist()]


@pytest.mark.parametrize("cols", [1, 5, 8])
def test_every_edge_value_in_every_column(tmp_path, cols):
    # each edge value in each column, the rows crossing a block boundary
    values = np.resize(np.array(_EDGES), output.CSV_BLOCK_ROWS + len(_EDGES))
    table = np.stack([np.roll(values, 3 * j) for j in range(cols)], axis=1)
    assert _write(tmp_path / "t.csv", table) == _oracle("h", table)


def test_every_layout(tmp_path):
    # doubles with n significant digits and the decimal point at d, for each
    # sign, n = 1..17 and d = -9..16, the layouts the kernel has templates for
    rng = np.random.default_rng(5)
    values = []
    for d in range(-9, 17):
        for n in range(1, 18):
            for _ in range(3):
                digits = "".join(map(str, rng.integers(0, 10, size=n - 1))) + str(rng.integers(1, 10))
                values += [float(f"0.{digits}e{d}"), -float(f"0.{digits}e{d}")]
    table = np.array(values).reshape(-1, 6)
    assert _write(tmp_path / "t.csv", table) == _oracle("h", table)


def test_head_has_at_most_15_trailing_zeros():
    # the trailing-zero count of _csv_rows runs passes of 8, 4, 2 and 1
    # digits, 15 in all, so every head must stay under 10^16. vp grows with
    # the mantissa, so its largest value at each exponent of the fast range
    # is at mantissa 2^53 - 1; the head is vp // 100 wherever the gap (the
    # floor or the ceiling of 4 5^i / 2^q) can fall under 100, else vp // 1000
    mv = 4 * (2 ** 53 - 1)
    heads = {}
    for e in np.flatnonzero(output._POW5):
        pow5, q = int(output._POW5[e]), int(output._SHIFT[e])
        vp = (mv + 2) * pow5 >> q
        heads[int(e)] = vp // (100 if (4 * pow5) >> q < 100 else 1000)
    assert len(heads) == 82
    assert max(heads.values()) == heads[1065] == 8_796_093_022_207_999 < 10 ** 16


def test_most_trace_cells_skip_repr(tmp_path, monkeypatch, five_story_runs):
    # the five-story jz2 trace: a kernel that sent every cell to repr would
    # still write the same bytes, so count the cells that reach repr
    trace = five_story_runs.smc_jz2
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(output, "repr", counting_repr, raising=False)
    st.write_trace_csv(trace, tmp_path / "trace.csv")
    monkeypatch.undo()
    cells = len(trace.t) * 8
    assert len(calls) <= 0.01 * cells, f"{len(calls)} of {cells} cells went to repr"
    reference_trace_csv(trace, tmp_path / "reference.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
