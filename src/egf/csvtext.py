"""The text of trajectory.csv: ``"%.17g"`` for a whole float64 array at once,
and the rows laid out from it a block at a time.

CPython formats one value at a time through its bignum ``dtoa`` (about 1 us
a value).  A fixed 17-digit conversion needs only integer arithmetic (Adams,
"Ryu revisited: printf floating point conversion", OOPSLA 2019), which numpy
runs over a whole array (:func:`format_17g`):

1. Write |x| = m 2^e (m < 2^53) and estimate k = floor(log10 |x|) with
   ``np.log10``.
2. With p = 16 - k and s = -e - p, the floor of |x| 10^p is m 5^p / 2^s: one
   128-bit product, formed from 32-bit halves in uint64, shifted right by s.
   It has 17 digits exactly when k is right; otherwise k moves by one and
   the quotient is taken again.
3. Round half to even on the remainder; a quotient that rounds up to 10^17
   becomes 10^16 with k + 1.
4. Lay the 17 digits out by the ``%g`` rules: fixed notation for
   -4 <= k < 17, else ``d.ddde-XX``; trailing zeros of the fraction and a
   bare point dropped; ``-`` in front of a negative value.

The fast range 1e-10 <= |x| < 1e14 keeps p <= 27 (5^27 < 2^63) and
1 <= s <= 63.  Every other value (0, -0, subnormal, very small or very
large, inf, nan) is formatted by ``"%.17g"`` itself; both give the same
bytes.  Step 4 is one gather per value: its class (sign, k, digits kept)
picks a row of a table of source columns.  The table is built on first use,
not at import.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = ["WIDTH", "format_17g", "trajectory_blocks"]

# Rows of trajectory.csv laid out per block (whole snapshots of about this
# many rows): bounds the text and the temporaries held in memory.
_BLOCK_ROWS = 4096

# The widest "%.17g" text of a float64: -2.2250738585072014e-308.
WIDTH = 24

_LOW, _HIGH = 1e-10, 1e14
# The decimal exponents of the fast range once rounded (99999999999999.99
# rounds up to 1e14); the log10 estimate may be one lower, so p <= 27.
_K_MIN, _K_MAX = -10, 14
_POW5 = np.array([5**p for p in range(16 - _K_MIN + 2)], dtype=np.uint64)

# A value's source row, 32 bytes: digits 1-8, digits 9-16, "0" plus digit 0,
# then the other characters of the layouts and NUL.  _COLUMN maps a digit's
# index or a character to its byte.
_TAIL = b"0.-e0123456789\0\0"
_TAIL_WORDS = np.frombuffer(_TAIL, dtype="<u8")
_COLUMN = {**{j: j - 1 for j in range(1, 17)}, 0: 16,
           **{c: 17 + i for i, c in enumerate(_TAIL[1:15].decode())}}
_DIGITS = "ABCDEFGHIJKLMNOPQ"  # placeholders of digits 0-16 in a layout


def _layout(negative: bool, k: int, kept: int) -> str:
    """The "%.17g" text of a value with this sign, decimal exponent k and
    count of significant digits kept, its digits written A..Q."""
    digits = _DIGITS[:kept]
    if -4 <= k < 17:
        if k < 0:
            text = "0." + "0" * (-k - 1) + digits
        else:
            digits = _DIGITS[:max(kept, k + 1)]
            text = digits[:k + 1] + ("." + digits[k + 1:] if kept > k + 1 else "")
    else:
        text = digits[0] + ("." + digits[1:] if kept > 1 else "") + "e%+03d" % k
    return "-" + text if negative else text


def _class(negative, k, kept):
    """The row of _columns() of a sign, decimal exponent and digit count."""
    return (negative * (_K_MAX - _K_MIN + 1) + k - _K_MIN) * 17 + kept - 1


@functools.cache
def _columns() -> np.ndarray:
    """The source columns of every class's text, then of NUL up to WIDTH."""
    columns = np.full((_class(1, _K_MAX, 17) + 1, WIDTH), _COLUMN["\0"], dtype=np.intp)
    for negative in (0, 1):
        for k in range(_K_MIN, _K_MAX + 1):
            for kept in range(1, 18):
                text = _layout(bool(negative), k, kept)
                columns[_class(negative, k, kept), :len(text)] = [
                    _COLUMN[_DIGITS.index(c) if c in _DIGITS else c] for c in text]
    columns.flags.writeable = False  # shared by every call
    return columns


def _floor_scaled(m, e, k):
    """The floor of m 2^e 10^(16-k), and whether rounding half to even
    takes it up: the 128-bit product m 5^p from 32-bit halves, shifted right
    by s = -e - p."""
    p = 16 - k
    s = (-e - p).astype(np.uint64)
    b = _POW5[p]
    m0, m1 = m & 0xFFFFFFFF, m >> 32
    b0, b1 = b & 0xFFFFFFFF, b >> 32
    low = m0 * b0
    mid = m0 * b1 + m1 * b0  # < 2^63 + 2^53
    lo = low + (mid << 32)
    hi = m1 * b1 + (mid >> 32) + (lo < low)
    floor = (hi << (64 - s)) | (lo >> s)
    rest = lo & ((1 << s) - 1)
    half = 1 << (s - 1)
    return floor, (rest > half) | ((rest == half) & (floor & 1).astype(bool))


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, k) with 10^16 <= q < 10^17 and a = q 10^(k-16), rounded half to
    even, for positive ``a`` in the fast range."""
    f, e = np.frexp(a)
    m = (f * 2.0**53).astype(np.uint64)
    e = e.astype(np.intp) - 53
    k = np.floor(np.log10(a)).astype(np.intp)
    q, up = _floor_scaled(m, e, k)
    low, high = q < 10**16, q >= 10**17
    wrong = np.flatnonzero(low | high)
    if wrong.size:  # log10 rounded across a power of ten
        k[wrong] += high[wrong].astype(np.intp) - low[wrong]
        q[wrong], up[wrong] = _floor_scaled(m[wrong], e[wrong], k[wrong])
    q += up
    carry = q == 10**17
    q[carry] = 10**16
    return q, k + carry


def _ascii8(x: np.ndarray) -> np.ndarray:
    """Numbers below 10^8 as uint64 words whose little-endian bytes are their
    eight decimal digits, most significant first, not yet offset to ASCII:
    4 + 4 digits in 32-bit lanes, 2 + 2 in 16-bit lanes, 1 + 1 in bytes,
    each split by a multiply-shift quotient exact on its lane's range."""
    top = x // 10000
    x = top | ((x - top * 10000) << 32)
    top = ((x * 10486) >> 20) & 0x0000007F0000007F
    x = top | ((x - top * 100) << 16)
    top = ((x * 103) >> 10) & 0x000F000F000F000F
    return top | ((x - top * 10) << 8)


def format_17g(values: np.ndarray) -> np.ndarray:
    """The text of ``"%.17g" % v`` for each v of a 1-D float64 array: an
    (n, WIDTH) uint8 matrix, each row the ASCII text from column 0 and NUL
    bytes after it.  Its temporaries take about 250 bytes a value: pass
    blocks of a few thousand values."""
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= _LOW) & (a < _HIGH)
    q, k = _decimal17(np.where(fast, a, 1.0))
    head = q // 10**8
    digit0 = head // 10**8
    words = _ascii8(np.stack((head - digit0 * 10**8, q - head * 10**8), axis=1))
    # a word's significant digits: its highest non-zero byte is below 16, so
    # the float's binary exponent gives that byte's index
    significant = (np.frexp(words.astype(np.float64))[1] + 7) // 8
    kept = np.maximum(np.where(words[:, 1] != 0, 9 + significant[:, 1], 0),
                      1 + significant[:, 0])
    source = np.empty((x.size, 4), dtype="<u8")  # bytes in digit order
    source[:, :2] = words + 0x3030303030303030
    source[:, 2] = _TAIL_WORDS[0] + digit0
    source[:, 3] = _TAIL_WORDS[1]
    index = _columns().take(_class(np.signbit(x), k, kept), axis=0)
    index += (np.arange(x.size) * 32)[:, None]
    text = source.view(np.uint8).ravel().take(index)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = "".join([("%.17g" % v).ljust(WIDTH, "\0") for v in x[slow].tolist()])
        text[slow] = np.frombuffer(cells.encode(), dtype=np.uint8).reshape(-1, WIDTH)
    return text


def _text_matrix(texts: list) -> np.ndarray:
    """ASCII texts as the rows of a uint8 matrix, each from column 0 and NUL
    bytes after it."""
    width = max(map(len, texts))
    matrix = np.frombuffer("".join([t.ljust(width, "\0") for t in texts]).encode(), dtype=np.uint8)
    return matrix.reshape(len(texts), width)


def trajectory_blocks(times: np.ndarray, axes: dict, fields: dict):
    """The trajectory.csv rows after the header, as bytes: t, the node
    coordinates and the fields, over the snapshots ``times``, then the nodes
    in axis order, in blocks of whole snapshots of about _BLOCK_ROWS rows.
    Each node's coordinates are formatted once per run and each snapshot
    time once per snapshot; a block's field values go through
    :func:`format_17g` at once.  A block is one byte matrix, a row per CSV
    row and a slot of fixed width per piece (the time, the coordinates, and
    ``,`` and text per field value), each piece's text from the start of its
    slot and NUL after it; the block's bytes are its non-NUL bytes."""
    nodes = itertools.product(*(["%.17g" % v for v in a.tolist()] for a in axes.values()))
    coords = _text_matrix(["," + ",".join(node) for node in nodes])
    times = ["%.17g" % t for t in times.tolist()]
    per_block = max(1, _BLOCK_ROWS // coords.shape[0])
    for start in range(0, len(times), per_block):
        stamps = _text_matrix(times[start:start + per_block])
        values = np.stack([f[start:start + per_block].reshape(len(stamps), -1)
                           for f in fields.values()], axis=-1)
        a, b = stamps.shape[1], stamps.shape[1] + coords.shape[1]
        block = np.empty((*values.shape[:2], b + values.shape[2] * (1 + WIDTH) + 1),
                         dtype=np.uint8)
        block[:, :, :a] = stamps[:, None]
        block[:, :, a:b] = coords
        cells = block[:, :, b:-1].reshape(*values.shape, 1 + WIDTH)
        cells[..., 0] = ord(",")
        cells[..., 1:] = format_17g(values.ravel()).reshape(*values.shape, WIDTH)
        block[:, :, -1] = ord("\n")
        yield block[block != 0]
