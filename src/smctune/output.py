"""The float text of every output file: the shortest decimal that reads back
to the same float, byte for byte ``repr``, in LF-terminated lines.
``write_table`` writes every float CSV; ``_cells`` gives the same text cell by
cell to the tuples of ``result.json``, ``comparison.csv`` and the ``mesh.csv``
footer. Both rest on ``_csv_rows``, the numpy kernel after Ryu below.
"""
from __future__ import annotations

import numpy as np

__all__ = ["write_table"]

#: rows formatted at a time. The kernel holds about 130 bytes per cell at
#: once, 0.5 MB for a block of the 8-column trace (per-cell Python floats
#: held 160 KB). 256-row blocks write the trace 25% slower; 1024- and
#: 2048-row blocks write no faster and raised the peak memory of a
#: `simulate` run by 2.9 and 0.8 MB, 512-row blocks by 0.1-0.2 MB.
CSV_BLOCK_ROWS = 512


def write_table(path, header: str, columns, footer: str = "") -> None:
    """Write a float table as CSV with LF line endings: the ``header`` line,
    one row per entry of the ``columns`` (1-D or 2-D float arrays of one
    length, side by side), each cell the shortest repr that reads back to the
    same float, then ``footer`` as given.

    Each cell is byte for byte ``repr(float(cell))``. ``_csv_rows`` writes
    the cells of a block of rows from their exact shortest digits, computed
    on numpy lanes; the few it cannot lay out (zeros, subnormals, inf and
    nan, powers of two, |x| >= 2^50 or < 2^-32, and the rare values whose
    scaled digits are exact, Ryu's trailing-zero case) it writes with
    ``repr``.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            fh.write(_csv_rows(np.column_stack([column[block] for column in columns])))
        fh.write(footer.encode())


def _cells(table) -> list[str]:
    """``repr(float(cell))`` of each cell of the 2-D float ``table``, row by
    row, from ``_csv_rows`` in blocks of CSV_BLOCK_ROWS rows."""
    table = np.asarray(table, dtype=np.float64)
    text = b"".join(_csv_rows(table[start:start + CSV_BLOCK_ROWS])
                    for start in range(0, len(table), CSV_BLOCK_ROWS))
    return text.decode().replace("\n", ",").split(",")[:-1]


# Shortest round-trip digits on uint64 lanes: the e2 < 0 branch of Ryu
# (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018), exact.
# A normal double is x = m2 2^(E - 1075); with mv = 4 m2 and e2 = E - 1077,
# x = mv 2^e2, and the halfway points to its neighbours are (mv -+ 2) 2^e2
# (x not a power of two). For k = -e2, q = max(0, floor(k log10 5) - 1) and
# i = k - q, x = V 10^(q - k) with V = mv 5^i / 2^q. For i <= 27 the product
# mv 5^i fits 128 bits and is formed exactly from 32-bit limbs, so vr, vm, vp
# are the exact floors of V and of the scaled halfway points. Those points
# are never integers (q >= 2), so the shortest digits are the integer in
# (vm, vp] left after removing the most digits r, rounded to nearest on the
# removed digits; V not being an integer (rem != 0) rules out a tie.
# This covers 2^-32 <= |x| < 2^50, except powers of two.
_U64 = np.uint64
_DMIN, _DMAX, _NMAX = -9, 16, 17   # the layouts of the fast range
_ND = _DMAX - _DMIN + 1
_WIDTH = 6 + 18 + 4 + 1


def _exponents():
    """5^i, q and d - n - r - _DMIN by biased exponent E; for an E outside
    991 ... 1072 (q < 2, or 5^i past 63 bits), d < 0 sends the cell to repr."""
    pow5, shift = np.zeros(2048, _U64), np.full(2048, 2, _U64)
    offset = np.full(2048, -2048, np.intp)
    for e in range(1075, 0, -1):
        k = 1077 - e
        q = (k * 732923 >> 20) - 1                       # floor(k log10 5) - 1
        if k - q > 27:        # from here up, 5^i < 2^63 and 2 5^i + 2^q < 2^64
            break
        if q >= 2:
            pow5[e], shift[e], offset[e] = 5 ** (k - q), q, q - k - _DMIN
    return pow5, shift, offset


# A cell's bytes come from a 29-byte grid: a prefix of 6 (sign, "0.000"), a
# field of 18 digit slots, a suffix of 4 ("e-XY") and the separator. The
# template of a layout (sign, decimal point position d, digit count n) holds
# its constant bytes, "0" on each slot that takes a digit, and NUL on each
# slot it drops. The digits enter the field as one 18-digit integer with a
# zero digit on every slot outside the n digits, so OR-ing them into the
# template and deleting the NULs gives the cell: repr writes fixed notation
# for -4 < d <= 16 and d.ddde-XY below; the field splits the digits at its
# "." slot s and writes the zeros of d >= n.
def _layouts():
    """By key = (sign _ND + d - _DMIN) _NMAX + n - 1, and one last key whose
    template holds only the separator, for the cells ``repr`` writes: the
    template, its length without the NULs, and the powers of ten 10^(n - s),
    10^(18 - s) and 10^(17 - n) that split the n digits at s and place both
    parts in the field."""
    zeros, rows, split = "0" * 18, [], []
    for d in range(_DMIN, _DMAX + 1):
        lead = ("\0" + ("0." + "0" * -d if -4 < d <= 0 else "")).ljust(6, "\0")
        tail = (f"e-{1 - d:02d}" if d <= -4 else "").ljust(4, "\0") + ","
        for n in range(1, _NMAX + 1):
            s = 1 if d <= -4 else n if d <= 0 else min(d, n)
            field = (zeros[:s] + "." + zeros[s:n] if s < n     # d.ddd, ddd.ddd
                     else zeros[:d] + ".0" if d >= n           # ddd000.0
                     else zeros[:n])                           # d, 0.000ddd
            rows.append(lead + field.ljust(18, "\0") + tail)
            split.append(s)
    plus = np.frombuffer("".join(rows).encode(), np.uint8).reshape(-1, _WIDTH)
    minus, nothing = plus.copy(), np.zeros((1, _WIDTH), np.uint8)
    minus[:, 0] = ord("-")
    nothing[0, -1] = ord(",")
    template = np.concatenate([plus, minus, nothing])
    split = np.array(split * 2 + [1])
    count = np.append(np.tile(np.arange(1, _NMAX + 1), 2 * _ND), 1)
    return (template, np.count_nonzero(template, axis=1),
            _POW10[count - split], _POW10[18 - split], _POW10[17 - count])


_POW5, _SHIFT, _OFFSET = _exponents()
_POW10 = np.array([10 ** j for j in range(20)], _U64)
_TEMPLATE, _LENGTH, _HEAD, _LEFT, _RIGHT = _layouts()
_REPR = len(_TEMPLATE) - 1


def _csv_rows(table) -> bytes:
    """The CSV lines of the rows of the 2-D float ``table``, LF-terminated."""
    cells = np.ascontiguousarray(table, dtype=np.float64).reshape(-1)
    bits = cells.view(_U64)
    e = ((bits >> _U64(52)) & _U64(0x7ff)).astype(np.intp)
    frac = bits & _U64(2 ** 52 - 1)
    fast = frac != _U64(0)                                # a power of two: repr
    mv = (frac | _U64(2 ** 52)) << _U64(2)
    pow5, q = _POW5[e], _SHIFT[e]
    # P = mv 5^i, exactly, as p_hi 2^64 + p_lo
    low = _U64(2 ** 32 - 1)
    a0, a1, b0, b1 = mv & low, mv >> _U64(32), pow5 & low, pow5 >> _U64(32)
    lo = a0 * b0
    mid = a1 * b0 + a0 * b1                               # < 2^64, as a1 < 2^23
    carry = (lo >> _U64(32)) + (mid & low)                # < 2^33
    p_lo = (carry << _U64(32)) | (lo & low)
    p_hi = a1 * b1 + (mid >> _U64(32)) + (carry >> _U64(32))
    del frac, mv, a0, a1, b0, b1, lo, mid, carry
    # vr = floor(P / 2^q), and the floors of (P -+ 2 5^i) / 2^q
    vr = (p_hi << (_U64(64) - q)) | (p_lo >> q)
    mask = (_U64(1) << q) - _U64(1)
    rem = p_lo & mask
    pow5 <<= _U64(1)
    vp = vr + ((rem + pow5) >> q)
    vm = vr - ((pow5 - rem + mask) >> q)
    fast &= rem != _U64(0)                                # V an integer: repr
    del p_lo, p_hi, mask, rem, pow5, q
    # r = the most digits whose removal leaves an integer in (vm, vp]. The
    # gap g = vp - vm is 41 to 391, so with L = 1 + (g >= 100), r >= L; and
    # r > L exactly when vp mod 10^(L+1) < g, which makes r = L + 1 + the
    # number of trailing zero digits of vp // 10^(L+1).
    gap = vp - vm
    big = gap >= _U64(100)
    head = np.where(big, vp // _U64(1000), vp // _U64(100))
    short = vp - head * np.where(big, _U64(1000), _U64(100)) < gap
    r = 1 + big + short
    del vp, gap, big
    # only a head that ends in a zero digit has trailing zeros to count. A
    # head stays under 10^16 (at most 8 796 093 022 207 999, at E = 1065),
    # so it has at most 15 of them: passes of 8, 4, 2 and 1 count them all
    ten = np.flatnonzero(short & (head // _U64(10) * _U64(10) == head))
    if len(ten):
        head = head[ten]
        for k in (8, 4, 2, 1):
            tens = head // _POW10[k]
            zeros = tens * _POW10[k] == head
            head = np.where(zeros, tens, head)
            r[ten] += k * zeros
    del head, short
    # the digits: vr without its last r digits, rounded to nearest on them,
    # or up when the result would be vm's and so outside (vm, vp]
    scale = _POW10[r]
    digits = vr // scale
    vr -= digits * scale
    digits += (vr >= scale - vr) | (digits == vm // scale)
    del vr, vm, scale
    n = np.searchsorted(_POW10, digits, side="right")
    d = n + r + _OFFSET[e]                                # d - _DMIN
    fast &= (d >= 0) & (d < _ND) & (n <= _NMAX)           # else no layout: repr
    key = np.where(fast, ((bits >> _U64(63)).astype(np.intp) * _ND + d) * _NMAX + n - 1, _REPR)
    del e, n, d, r
    # the field as one 18-digit integer: the first s digits, a zero, the rest
    digits *= fast
    cut = _HEAD[key]
    head = digits // cut
    digits -= head * cut
    field = head * _LEFT[key] + digits * _RIGHT[key]
    del head, digits, cut
    # its digits, 9 from each half, OR-ed into the template
    halves = np.empty((len(cells), 2), np.uint32)
    head = field // _U64(10 ** 9)
    halves[:, 0] = head
    halves[:, 1] = field - head * _U64(10 ** 9)
    del field, head
    column = np.empty((len(cells), 2, 9), np.uint8)
    for slot in range(8, -1, -1):
        tens = halves // np.uint32(10)
        column[:, :, slot] = halves - tens * np.uint32(10)
        halves = tens
    grid = _TEMPLATE.take(key, axis=0)
    grid[:, 6:24] |= column.reshape(len(cells), 18)
    grid.reshape(len(table), -1, _WIDTH)[:, -1, -1] = ord("\n")
    text = grid.tobytes().translate(None, b"\0")
    del grid, column
    slow = np.flatnonzero(~fast)
    if not len(slow):
        return text
    # each repr cell goes in before its separator
    ends = (np.cumsum(_LENGTH[key])[slow] - 1).tolist()
    pieces = []
    for begin, end, value in zip([0] + ends, ends, cells[slow].tolist()):
        pieces += [text[begin:end], repr(value).encode()]
    return b"".join(pieces) + text[ends[-1]:]

