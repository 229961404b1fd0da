"""CSV artifacts in numpy.savetxt's "%.17g" text, formatted a block at a time.

numpy computes the text of a block of whole rows at once; Python's ``%`` is
kept for the values numpy cannot certify. For a = |x| and X = floor(log10 a)
the 17 significant digits are N = round(a * 10^(16 - X)). The power of ten
is a double-double (hi + lo) and a * hi is formed exactly by Dekker's
two-product (Numer. Math. 18, 1971), so the product is known to within about
2^-46, and N is certified when its fractional part is more than 1e-6 from
one half and 10^16 <= N < 10^17 confirms X. This is fixed-precision
conversion by exact arithmetic, as in Adams, "Ryu revisited: printf floating
point conversion" (OOPSLA 2019). The %g layout (fixed notation for
-4 <= X < 17, else d.ddde+XX, trailing zeros stripped) is then assembled as
fixed-width byte records whose unused bytes are 0 and deleted at the end.
Zeros, non-finite values, magnitudes outside (1e-280, 1e280), uncertified
roundings (exact ties among them) and blocks of fewer than ``PERCENT_BELOW``
values, where numpy's fixed cost outweighs ``%``, are formatted by ``%``.
"""

import numpy as np

BLOCK_VALUES = 4096  # values formatted per block; bounds the text held
# Blocks of fewer values go to % whole: numpy's digits cost about 120 us a
# block whatever its size, % about 0.7 us a value (2-core x86, crossing
# near 170 values).
PERCENT_BELOW = 160

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
_EXP_MIN = -300  # the tables cover decimal exponents in [-300, 300]
_RECORD = 30  # sign, "0.000", 17 digits and a dot, "e+XXX", then "," or "\n"
_SLOTS = np.arange(18, dtype=np.uint8)[:, None]  # digit and dot slot indices


def _split(x):
    """Dekker's split of x into a high and a low half whose sum is exact."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _pow10_table() -> np.ndarray:
    """(4, 601): 10^k for k in [-300, 300] as hi, hi's split halves and lo.
    hi + lo equals 10^k to about 2^-106 relative wherever lo is a normal
    float (k >= -291), which holds for every k a certified value uses."""
    table = []
    for k in range(_EXP_MIN, -_EXP_MIN + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # integer true division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        table.append((hi, *_split(hi), lo))
    return np.array(table).T.copy()


def _layout_table() -> np.ndarray:
    """(12, 601) uint8 %g layout per decimal exponent X in [-300, 300]: the
    five lead bytes ("0.000" for -4 <= X < 0), the five exponent bytes
    ("e+XX" or "e+XXX" outside -4 <= X < 17), each 0-padded, then the digit
    the dot follows and the number of digits always kept."""
    columns = []
    for x in range(_EXP_MIN, -_EXP_MIN + 1):
        fixed = -4 <= x < 17
        lead = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        exponent = b"" if fixed else b"e%+03d" % x
        dot_after = x if fixed and x >= 0 else 17 if fixed else 0
        columns.append(lead.ljust(5, b"\0") + exponent.ljust(5, b"\0")
                       + bytes([dot_after, x + 1 if fixed and x >= 0 else 1]))
    return np.frombuffer(b"".join(columns), np.uint8).reshape(-1, 12).T.copy()


_POW10 = _pow10_table()
_LAYOUT = _layout_table()


def _percent_format(values: np.ndarray) -> bytes:
    """``%.17g`` text of ``values``, each padded with 0 bytes to one record."""
    return b"".join((b"%.17g" % v).ljust(_RECORD - 1, b"\0") for v in values.tolist())


def _records(values: np.ndarray, n_cols: int) -> bytes:
    """The ``%.17g`` text of a row-major block of ``n_cols``-value rows."""
    n = values.size
    out = np.empty((_RECORD, n), np.uint8)
    slow = np.arange(n) if n < PERCENT_BELOW else _certified_records(values, out)
    out[29] = 44  # ","
    out[29, n_cols - 1 :: n_cols] = 10  # "\n"
    if slow.size:
        text = _percent_format(values[slow])
        out[:-1, slow] = np.frombuffer(text, np.uint8).reshape(-1, _RECORD - 1).T
    return out.T.tobytes().translate(None, b"\0")


def _certified_records(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the records of the values whose digits numpy certifies into
    ``out``'s columns; returns the indices of the rest."""
    n = values.size
    a = np.abs(values)
    fast = (a > 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    exp10 = np.floor(np.log10(a)).astype(np.intp)

    # N = round(a * 10^(16 - X)). p plus the split products is a * hi exactly
    # (Dekker); a * lo adds the table's residual. Where X is right, p >= 10^16
    # exceeds 2^53 and is an integer, so N's fraction comes from the tail.
    hi, hi_high, hi_low, lo = (np.take(row, 16 - _EXP_MIN - exp10) for row in _POW10)
    a_high, a_low = _split(a)
    p = a * hi
    tail = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    tail += a * lo
    floor_tail = np.floor(tail)
    frac = tail - floor_tail
    floor_n = p.astype(np.int64) + floor_tail.astype(np.int64)
    n17 = floor_n + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (floor_n >= 10**16) & (n17 < 10**17)
    n17[~fast] = 10**16

    # The digits of N's two uint32 halves, 9 each; the upper half's first is 0.
    halves = np.empty((2, n), np.uint32)
    np.floor_divide(n17, 10**9, out=halves[0], casting="unsafe")
    np.subtract(n17, halves[0] * np.int64(10**9), out=halves[1], casting="unsafe")
    digits = np.empty((2, 9, n), np.uint8)
    for j in range(8, -1, -1):
        q_next = halves // 10
        digits[:, j] = halves - q_next * 10
        halves = q_next
    digits = digits.reshape(18, n)[1:]
    last = ((digits != 0).view(np.uint8) * _SLOTS[:17]).max(axis=0)

    # The %g layout of each exponent: lead, exponent, dot and kept digits.
    layout = np.take(_LAYOUT, exp10 - _EXP_MIN, axis=1)
    out[1:6] = layout[:5]
    out[24:29] = layout[5:10]
    dot_after = layout[10]
    kept = np.maximum(last + 1, layout[11])
    np.multiply((values < 0).view(np.uint8), 45, out=out[0])  # "-"
    chars = (digits + np.uint8(48)) * (_SLOTS[:17] < kept).view(np.uint8)
    body = out[6:24]
    np.multiply((_SLOTS[:17] <= dot_after).view(np.uint8), chars, out=body[:17])
    body[17] = 0
    body[1:] += (_SLOTS[1:] > dot_after + 1).view(np.uint8) * chars
    body += (_SLOTS == dot_after + 1).view(np.uint8) * (46 * (kept > dot_after + 1).view(np.uint8))
    return np.flatnonzero(~fast)


def write_csv(path, rows, header: str | None = None) -> None:
    """Write a 1-d column or 2-d table; the bytes equal ``np.savetxt(path,
    rows, delimiter=",", fmt="%.17g", header=header or "", comments="")``."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (1, 2):
        raise ValueError(f"Expected 1D or 2D array, got {rows.ndim}D array instead")
    rows = rows.reshape(-1, 1) if rows.ndim == 1 else rows
    n_rows, n_cols = rows.shape
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode() + b"\n")
        if n_cols == 0:
            fh.write(b"\n" * n_rows)  # rows of no values, as savetxt writes them
            return
        per_block = max(1, BLOCK_VALUES // n_cols)
        for lo in range(0, n_rows, per_block):
            fh.write(_records(rows[lo : lo + per_block].ravel(), n_cols))
