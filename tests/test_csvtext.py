"""The CSV number kernel against Python's ``"%.17g" % v``, value by value, and
the writer's one way of opening its file."""

import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from cavitychain import cli, csvtext
from cavitychain.csvtext import CELLS, number_cells


def kernel_text(values):
    """The kernel's text of each value, and how many values Python formatted."""
    x = np.asarray(values, dtype=np.float64)
    cells = np.empty((CELLS, len(x)), np.uint64)
    python = number_cells(x, cells)
    cells[-1] |= np.uint64(ord("\n")) << np.uint64(56)  # the byte the writer's separator takes
    return cells.T.tobytes().translate(None, b"\0").decode().split("\n")[:-1], python


def assert_g17(values):
    """The kernel gives the bytes of ``"%.17g"``; returns how many values Python formatted."""
    text, python = kernel_text(values)
    expected = ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]
    wrong = [(v, t, e) for v, t, e in zip(np.asarray(values).tolist(), text, expected) if t != e]
    assert len(text) == len(expected)
    assert not wrong, f"{len(wrong)} values differ, first {wrong[:3]}"
    return python


def powers_of_ten():
    """10^k for k = -320 .. 308, as powers and as parsed literals, with both neighbours."""
    k = np.arange(-320, 309)
    p = np.r_[10.0 ** k.astype(float), [float(f"1e{i}") for i in k]]
    return np.r_[p, np.nextafter(p, 0), np.nextafter(p, np.inf)]


def near_ties():
    """Values within a hair of an 18th-digit tie where 10^k is not a double.

    Small ones are m 2^-(j+k), so that 10^k v = m 5^k 2^-j has fraction
    1/2 + c 2^-j; large ones are M 2^(K+g), so that v / 10^K = M 2^g / 5^K has
    fraction 1/2 + d / (2 5^K).  Of the 2,258 values, 457 lie within 2e-15 of
    the tie, where the kernel's rest s can round to either side of it.
    """
    def solutions(residue, step, low, high):
        """Every x = residue (mod step) with low <= x < min(high, 2^53)."""
        return range(residue - (residue - low) // step * step, min(high, 2**53), step)

    values = []
    for k in range(23, 30):
        for j in range(46, 54):
            inverse = pow(5**k, -1, 2**j)
            for c in range(-4, 5):
                residue = (2 ** (j - 1) + c) * inverse % 2**j
                low, high = -(-(10**16) * 2**j // 5**k), -(-(10**17) * 2**j // 5**k)
                values += [m / 2.0 ** (j + k) for m in solutions(residue, 2**j, low, high)]
    for K in range(20, 25):
        for g in range(40, 70):
            inverse = pow(2**g, -1, 5**K)
            for d in range(-9, 10, 2):
                residue = (5**K + d) // 2 * inverse % 5**K
                low, high = -(-(10**16) * 5**K // 2**g), -(-(10**17) * 5**K // 2**g)
                values += [float(M) * 2.0 ** (K + g) for M in solutions(residue, 5**K, low, high)]
    return np.unique(values)


class TestKernelAgainstPercentG:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2**64, 60000, dtype=np.uint64)
        python = assert_g17(bits.view(np.float64))
        # outside |v| in (1e-200, 1e200), NaN payloads and subnormals: about 35 %
        assert 0.3 < python / len(bits) < 0.4

    def test_powers_of_ten_and_their_neighbours(self):
        values = powers_of_ten()
        assert_g17(np.r_[values, -values])

    def test_exact_ties_fall_back(self):
        m = np.random.default_rng(21).integers(4 * 10**15, 9 * 10**15, 20000) | 1
        ties = np.r_[m / 4.0, near_ties(), 1000000000000000.25]
        assert len(ties) == 20000 + 2258 + 1
        assert assert_g17(ties) == len(ties)

    def test_carries_and_boundaries(self):
        edges = np.array([99999999999999999.0, 9.9999999999999999e16, 0.99999999999999999,
                          9.99999999999999999e-5, 1e-5, 1e-4, 1e16, 1e17, 1e200, 1e-200])
        edges = np.r_[edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)]
        assert_g17(np.r_[edges, -edges])

    def test_special_values(self):
        payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                             0xFFFFFFFFFFFFFFFF], np.uint64).view(np.float64)
        special = np.r_[0.0, -0.0, np.nan, payloads, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
        assert assert_g17(special) == len(special) - 2  # all but the two zeros

    def test_decimals_of_every_length_and_exponent(self):
        rng = np.random.default_rng(22)
        digits = rng.integers(1, 10**17, 40000) // 10 ** rng.integers(0, 17, 40000)
        short = digits * 10.0 ** rng.integers(-25, 25, 40000)  # trailing zeros dropped
        spread = rng.normal(size=40000) * 10.0 ** rng.integers(-40, 40, 40000)
        assert assert_g17(np.r_[short, -short, spread, rng.random(20000)]) < 0.01 * 140000

    def test_integer_and_boolean_columns(self, tmp_path):
        rng = np.random.default_rng(23)
        big = np.r_[rng.integers(-(2**63), 2**63 - 1, 2000, dtype=np.int64),
                    2**53 + np.arange(-3, 40), [2**63 - 1, -(2**63)]]
        unsigned = rng.integers(2**53, 2**64 - 1, len(big), dtype=np.uint64)
        flags = rng.random(len(big)) < 0.5
        out = tmp_path / "ints.csv"
        cli._write_csv(out, ["i", "u", "b"], [big, unsigned, flags])
        rows = zip(big.tolist(), unsigned.tolist(), flags.tolist())
        expected = "i,u,b\n" + "".join("%.17g,%.17g,%.17g\n" % row for row in rows)
        assert out.read_text() == expected


def test_figure_values_need_no_python(tmp_path, monkeypatch):
    """The fig3a spectrum's 18,000 kernel numbers are all certified; its flags are a pair."""
    written = []
    monkeypatch.setattr(cli, "_write_csv", lambda out, header, columns: written.append(columns))
    assert cli.main(["spectrum", "--config", "fig3a", "--out", str(tmp_path / "f.csv")]) == 0
    ((*numbers, flags),) = written
    assert isinstance(flags, tuple) and not any(isinstance(c, tuple) for c in numbers)
    for column in numbers:
        assert assert_g17(column) == 0


@pytest.mark.parametrize("values", [[], [1.5], np.zeros(3)], ids=["empty", "one", "zeros"])
def test_small_inputs(values):
    assert assert_g17(values) == 0


class TestWritesOverExistingFiles:
    """``cli._write_csv`` overwrites an existing file in place and cuts it at its last byte."""

    HEADER = ["x", "flag"]

    def columns(self, rows):
        return [np.arange(rows) / 7.0, ([0, 1], np.arange(rows) % 3 == 0)]

    def fresh(self, tmp_path, rows):
        fresh = tmp_path / "fresh.csv"
        cli._write_csv(fresh, self.HEADER, self.columns(rows))
        return fresh.read_bytes()

    def test_a_longer_file_ends_at_the_new_bytes(self, tmp_path):
        expected = self.fresh(tmp_path, 3 * cli._CSV_BLOCK)
        out = tmp_path / "out.csv"
        for old in (np.random.default_rng(1).bytes(3 * len(expected)), b"", expected[:100]):
            out.write_bytes(old)
            cli._write_csv(out, self.HEADER, self.columns(3 * cli._CSV_BLOCK))
            assert out.read_bytes() == expected

    def test_an_interrupted_write_keeps_only_the_new_bytes(self, tmp_path, monkeypatch):
        expected = self.fresh(tmp_path, 3 * cli._CSV_BLOCK)
        out = tmp_path / "out.csv"
        out.write_bytes(np.random.default_rng(2).bytes(2 * len(expected)))
        blocks = []

        def interrupt_the_second_block(x, cells):
            blocks.append(len(x))
            if len(blocks) == 2:
                raise KeyboardInterrupt
            return number_cells(x, cells)

        monkeypatch.setattr(csvtext, "number_cells", interrupt_the_second_block)
        with pytest.raises(KeyboardInterrupt):
            cli._write_csv(out, self.HEADER, self.columns(3 * cli._CSV_BLOCK))
        assert blocks == [cli._CSV_BLOCK] * 2
        # the header and the first block, with nothing of the old file after them
        lines = expected.splitlines(keepends=True)
        assert out.read_bytes() == b"".join(lines[: 1 + cli._CSV_BLOCK])

    def test_a_hard_link_sees_the_new_bytes(self, tmp_path):
        out, link = tmp_path / "out.csv", tmp_path / "link.csv"
        out.write_bytes(b"old row\n" * 1000)
        os.link(out, link)
        cli._write_csv(out, self.HEADER, self.columns(3))
        assert link.read_bytes() == out.read_bytes() == b"x,flag\n0,1\n0.14285714285714285,0\n" \
            b"0.2857142857142857,0\n"

    def test_a_missing_file_is_created_as_wb_creates_it(self, tmp_path):
        out, reference = tmp_path / "out.csv", tmp_path / "reference.csv"
        with open(reference, "wb"):
            pass
        cli._write_csv(out, self.HEADER, self.columns(5))
        assert out.read_bytes() == self.fresh(tmp_path, 5)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    def test_a_column_that_fails_its_checks_leaves_the_file_as_it_was(self, tmp_path):
        out = tmp_path / "out.csv"
        old = np.random.default_rng(3).bytes(5000)
        out.write_bytes(old)
        for error, columns in ((ValueError, [np.zeros(3), np.zeros(2)]),
                               (TypeError, [np.zeros(2), np.zeros(2) + 1j]),
                               (ValueError, [np.zeros(2), ["site", "node\0level"]]),
                               (ValueError, [np.zeros(2), ([1.0, 2.0], [0, 2])])):
            with pytest.raises(error):
                cli._write_csv(out, self.HEADER, columns)
            assert out.read_bytes() == old

    def test_paths_that_are_not_regular_files_are_written_as_streams(self, tmp_path):
        cli._write_csv(Path(os.devnull), self.HEADER, self.columns(5))
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        cli._write_csv(fifo, self.HEADER, self.columns(2 * cli._CSV_BLOCK))
        reader.join(timeout=10)
        assert received == [self.fresh(tmp_path, 2 * cli._CSV_BLOCK)]
