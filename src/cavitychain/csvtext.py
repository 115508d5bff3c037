"""CSV text: the CLI's writer and its number kernel.

``write_csv`` writes columns as CSV rows with numbers as ``"%.17g" % v``.
Its kernel, ``number_cells``, gives each float64 value six 8-byte cells
whose bytes, NULs dropped, are exactly that text: the digits come from
numpy arithmetic that certifies its own exactness, and Python formats only
the values it cannot certify.  The CLI imports this module on its first
CSV, so commands that write none never compile it, and passes it the one
opener of every output: an existing file is overwritten in place and cut
to length, and a write interrupted partway leaves only the new bytes
written so far.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import BinaryIO, Callable, ContextManager

import numpy as np

#: Cells per number: the sign and fixed notation's ``0.000`` prefix; digits
#: d0-d15, each with a byte for the point after it; d16 and ``e+XXX``.
CELLS = 6
#: Decimal exponents the tables cover, beyond what 1e-200 < |v| < 1e200 gives.
_E_MIN, _E_MAX = -210, 210


@functools.cache
def _tables() -> tuple:
    """The lookup tables of ``number_cells``, built on its first call."""
    # per decimal exponent E: 10**(16 - E) = hi + lo, hi correctly rounded and
    # split in halves hh + hl for Dekker's product, lo the rounded rest (Python's
    # int / int is correctly rounded)
    hi, lo = [], []
    for k in range(16 - _E_MIN, 15 - _E_MAX, -1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            hi.append(1 / 10**-k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    hh = 134217729.0 * hi
    hh -= hh - hi
    powers = (hi, hh, hi - hh, np.array(lo))
    # the fixed notation's "0.000" prefix, the "e+XXX" suffix, the last digit
    # kept before the point, and 17 times the digit the point follows (17: none)
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e < 17)
    prefix = [b"\0" + b"0." + b"0" * (-E - 1) if -4 <= E < 0 else b"" for E in e.tolist()]
    suffix = [b"" if -4 <= E < 17 else b"\0\0" + b"e%+03d" % E for E in e.tolist()]
    layout = (np.array(prefix, "S8").view(np.uint64), np.array(suffix, "S8").view(np.uint64),
              np.where(fixed & (e >= 0), e, 0).astype(np.int8),
              17 * np.where(fixed, np.where(e >= 0, e, 17), 0))
    # per g < 10**4: its four ASCII digits in the low bytes of 16-bit lanes, a
    # point in each high byte, and the lane of its last nonzero digit
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10])
    shifts = (16 * np.arange(4, dtype=np.uint64))[:, None]
    lanes = (digits + (ord("0") + (ord(".") << 8))).astype(np.uint64) << shifts
    last = np.max(np.where(digits != 0, np.arange(4)[:, None], -99), axis=0).astype(np.int8)
    # per (point slot, last kept digit): the bytes of cells 1-4 kept
    keep = np.zeros((4, 18, 17), np.uint64)
    for slot in range(18):
        for kept in range(17):
            for digit in range(min(kept, 15) + 1):
                point = 0xFF00 if digit == slot < kept else 0
                keep[digit // 4, slot, kept] |= (0xFF | point) << 16 * (digit % 4)
    group = (lanes.sum(axis=0, dtype=np.uint64), last, (4 * np.arange(4, dtype=np.int8))[:, None],
             keep.reshape(4, -1))
    return powers, layout, group


def number_cells(x: np.ndarray, out: np.ndarray) -> int:
    """Write ``"%.17g" % v`` for each float64 ``v`` of ``x`` into the (6, len(x))
    uint64 cells ``out``; return how many values Python formatted.

    A value's cells in order, NUL bytes dropped, are its text, and the last
    byte of its cell 5 is always NUL.  With E = floor(log10 |v|) and
    10^(16-E) = hi + lo, the kernel forms |v| 10^(16-E) as p + s: p the
    rounded product |v| hi and s its exact error (Dekker, Numer. Math. 18,
    224 (1971)) plus |v| lo, within 1e-14 of the exact rest.  N = p + rint(s)
    holds the 17 digits once they are certified: |s - rint(s)| < 0.5 - 1e-9
    (rounding decided, no tie at the 18th digit), (p - 1e16) + s >= 0 and
    (p - 1e17) + rint(s) < 0 (E right, no carry into an 18th digit).  Every
    other value (NaN, infinities, subnormals, |v| outside (1e-200, 1e200), E
    off by one next to a power of ten, exact ties) goes through
    ``"%.17g" % v``; +-0 is "0" and "-0" in the kernel.  The layout is C's:
    trailing zeros dropped, fixed notation for -4 <= E < 17 with a point only
    when digits follow it, else ``d.ddde+XX`` with three exponent digits from
    100 up.
    """
    (hi, hh, hl, lo), (prefix, suffix, whole, slot17), (lanes, last, first, keep) = _tables()
    a = np.abs(x)
    ok = (a > 1e-200) & (a < 1e200)
    np.copyto(a, 0.0, where=~ok)  # a value left to Python runs through as "0"
    e = np.floor(np.log10(a + ~ok)).astype(np.intp) - _E_MIN
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    bh, bl = hh.take(e), hl.take(e)
    p = a * hi.take(e)
    s = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo.take(e)
    r = np.rint(s)
    ok &= np.abs(s - r) < 0.5 - 1e-9
    ok &= (p - 1e16) + s >= 0
    ok &= (p - 1e17) + r < 0
    # N = q 1e9 + m exactly (p is an integer below 2^57), then in groups of
    # four digits and d16; every quotient is below 2^53, so floor is exact
    q = np.floor(p / 1e9)
    m = (p - q * 1e9) + r
    c = np.floor(m / 1e9)
    q += c
    m -= c * 1e9
    groups = np.empty((4, len(x)))
    np.floor(q / 1e4, out=groups[0])
    groups[1] = q - 1e4 * groups[0]
    np.floor(m / 1e5, out=groups[2])
    m -= 1e5 * groups[2]
    np.floor(m / 10, out=groups[3])
    d16 = (m - 10 * groups[3]).astype(np.uint64)
    groups = groups.astype(np.intp)
    kept = np.max(last.take(groups, mode="clip") + first, axis=0)
    kept[d16 != 0] = 16
    np.maximum(kept, whole.take(e), out=kept)
    np.maximum(kept, 0, out=kept)
    out[0] = prefix.take(e)
    out[0] |= np.signbit(x) * np.uint64(ord("-"))
    np.bitwise_and(lanes.take(groups, mode="clip"), keep.take(slot17.take(e) + kept, axis=1),
                   out=out[1:5])
    out[5] = suffix.take(e)
    out[5] |= (kept == 16) * (d16 + np.uint64(ord("0")))
    python = ~ok & (x != 0)
    count = int(np.count_nonzero(python))
    if count:
        text = np.array(["%.17g" % v for v in x[python].tolist()], dtype=f"S{8 * CELLS}")
        out[:, python] = text.view(np.uint64).reshape(count, CELLS).T
    return count


def write_csv(out: Path, header: list[str], columns: list, block_rows: int,
              open_output: Callable[[Path], ContextManager[BinaryIO]]) -> tuple[int, int, int, int]:
    """Write equal-length columns as CSV rows, ``block_rows`` at a time, to the
    file ``open_output(out)`` opens; return the rows, the fields
    ``number_cells`` formatted, the numbers Python formatted and the bytes written.

    Numbers come out as ``"%.17g" % v`` (integer and boolean columns as
    float64, which is how ``%.17g`` rounds them) and text as ``"%s" % v``.
    A column is an array, or a tuple ``(values, index)`` meaning ``values[index]``.
    A block is one column-major array of 8-byte cells in which a NUL byte
    means "nothing": a numeric array takes its ``number_cells``; each entry
    of a pair's values (a text array is the pair ``(values, arange)``) is
    formatted once into the fewest whole cells that leave a last NUL byte,
    and each block gathers its rows' cells by index.  Each column's
    separator goes into the NUL last byte of its last cell, and the block is
    written as its cells in row order, NULs dropped.  Before the file is
    opened, columns of unequal length (a pair's is ``len(index)``), not one
    per name or not one-dimensional, text holding a NUL (it would be dropped
    as padding) and an index not of integers or outside ``[0, len(values))``
    raise ValueError, and values neither real numbers nor text raise
    TypeError, naming the column.
    """
    if len(header) != len(columns):
        raise ValueError(f"{out.name}: {len(header)} names for {len(columns)} columns")
    cols, python = [], 0  # per column: its numbers, or its (cells, index)
    for name, c in zip(header, columns):
        values, index = c if isinstance(c, tuple) else (c, None)
        values = np.asarray(values)
        if values.ndim != 1 or index is not None and np.ndim(index) != 1:
            raise ValueError(f"{out.name}: column {name!r} is not one-dimensional")
        if values.dtype.kind in "OUS":
            text = [str(v).encode() for v in values.tolist()]
            if any(b"\0" in t for t in text):
                raise ValueError(f"{out.name}: column {name!r} holds a NUL character")
        elif values.dtype.kind not in "biuf":
            raise TypeError(f"{out.name}: column {name!r} has dtype {values.dtype}, "
                            "neither real numbers nor text")
        elif index is None:
            cols.append(values)
            continue
        else:
            text = [b"%.17g" % v for v in values.astype(np.float64).tolist()]
            python += len(text)
        index = np.arange(len(text)) if index is None else np.asarray(index)
        if index.dtype.kind not in "biu":
            raise ValueError(f"{out.name}: column {name!r} has an index of dtype {index.dtype}")
        if index.size and not (0 <= index.min() and index.max() < len(text)):
            raise ValueError(f"{out.name}: column {name!r} has an index outside [0, {len(text)})")
        width = max(map(len, text), default=0) // 8 + 1  # cells, the last byte left NUL
        cells = np.array(text, f"S{8 * width}").view(np.uint64).reshape(len(text), width)
        cols.append((np.ascontiguousarray(cells.T), index))
    lengths = [len(c[1]) if isinstance(c, tuple) else len(c) for c in cols]
    if len(set(lengths)) > 1:
        raise ValueError(f"{out.name}: columns of unequal length {lengths}")
    rows = lengths[0] if cols else 0
    ends = np.cumsum([len(c[0]) if isinstance(c, tuple) else CELLS for c in cols])
    separators = np.array([b","] * (len(cols) - 1) + [b"\n"]).view(np.uint8).astype(np.uint64)
    separators = separators[:, None] << np.uint64(56)
    with open_output(out) as fh:
        size = fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, block_rows):
            stop = min(start + block_rows, rows)
            block = np.empty((ends[-1], stop - start), np.uint64)
            for c, end in zip(cols, ends):
                if isinstance(c, tuple):  # mode="clip" skips the bounds check made above
                    c[0].take(c[1][start:stop], axis=1, out=block[end - len(c[0]) : end],
                              mode="clip")
                else:
                    python += number_cells(c[start:stop].astype(np.float64, copy=False),
                                           block[end - CELLS : end])
            block[ends - 1] |= separators
            size += fh.write(block.T.tobytes().translate(None, b"\0"))
    return rows, rows * sum(not isinstance(c, tuple) for c in cols), python, size
