"""The exact "%.17g" text of float64 blocks, built by numpy, and plyap's CSV
writer.

float_frame lays the text of a block out position-major; row_text reads
stacked frames back as the rows of a CSV block; write_csvs writes a run's
CSVs block by block, through the kernel or through %.  It is a module of its
own because a process that caches no bytecode compiles runner.py at import,
and a longer runner.py raises the process's peak RSS: with this code inside
runner.py, by about 0.6 MB at import, and with write_csvs alone, by about
0.35 MB over a qbaker_sweep benchmark run (CPython 3.11).
"""

import contextlib

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves


def _halves(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# The tables are built from Python numbers: numpy calls at import would map more
# of numpy's code into every process, kernel or not.
_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles
_POW10_HI, _POW10_LO = map(np.array, zip(*map(_halves, _POW10.tolist())))
_PAIRS = b"".join(b"%02d" % k for k in range(100))
_TENS = np.frombuffer(_PAIRS[0::2], dtype=np.uint8)  # the digits of 00 ... 99
_ONES = np.frombuffer(_PAIRS[1::2], dtype=np.uint8)
# the text before the digits of a value in [1e-4, 1), by -E
_LEADS = np.frombuffer(b"".join(s.ljust(5, b"\0") for s in (b"", b"0.", b"0.0", b"0.00", b"0.000")),
                       dtype=np.uint8).reshape(5, 5).T
_DIGIT = np.array(range(17), dtype=np.int8)[:, None]


def float_frame(x: np.ndarray) -> np.ndarray:
    """The bytes of "%.17g" % v for each float64 v of x, position-major: a (40, n)
    uint8 array whose column j, read top down with its NULs dropped, is v's text.
    Rows: the sign, the "0.000" lead of |v| < 1, then each of the 17 digits
    followed by its "." slot.

    For 1e-4 <= |v| < 1e17, where %g prints positional text, the 17 digits are
    exact.  With E = floor(log10 |v|), |v| 10^(16 - E) is p + err exactly
    (Dekker's product; 10^(16 - E) <= 10^20 is an exact double).  p is an even
    integer near [1e16, 1e17], so rint, which rounds err half to even as %.17g
    rounds, gives the digits d = p + rint(err).  Any other value, and one whose
    d leaves [1e16, 1e17) because log10 was one off, is formatted by %."""
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.intp)
    np.minimum(np.maximum(e10, -4, out=e10), 16, out=e10)  # log10 may round across an end
    k = 16 - e10
    p = a * _POW10.take(k)
    a_hi, a_lo = _halves(a)
    b_hi = _POW10_HI.take(k)
    b_lo = _POW10_LO.take(k)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # d lies in [1e16, 1e17) exactly when E is right: the largest double under a
    # power of ten is 2^-53 of it or more below, so it scales to 1.1 or more under
    # 1e16 and 11 or more under 1e17, and rounding never carries d to the next power
    fast &= (d >= 10**16) & (d < 10**17)

    out = np.zeros((40, n), dtype=np.uint8)
    first = d // 10**16
    out[6] = first + 48
    # the other 16 digits: two groups of 8, four of 4, eight pairs
    g8 = np.empty((2, n), dtype=np.int64)
    g8[1] = d - first * 10**16
    g8[0] = g8[1] // 10**8
    g8[1] -= g8[0] * 10**8
    g4 = np.empty((4, n), dtype=np.intp)
    g4[0::2] = g8 // 10**4
    g4[1::2] = g8 - g4[0::2] * 10**4
    g2 = np.empty((8, n), dtype=np.intp)
    g2[0::2] = g4 // 100
    g2[1::2] = g4 - g2[0::2] * 100
    out[8::4] = _TENS.take(g2)
    out[10::4] = _ONES.take(g2)
    digits = out[6::2]
    last = ((digits != 48) * _DIGIT).max(axis=0)  # the last nonzero digit
    np.maximum(last, e10, out=last, casting="unsafe")  # %g keeps the integer digits
    digits *= _DIGIT <= last
    negative = x < 0
    if negative.any():
        out[0] = negative * np.uint8(45)
    if e10.min() < 0:
        out[1:6] = _LEADS.take(np.maximum(-e10, 0), axis=1)
    point = np.flatnonzero((e10 >= 0) & (e10 < last))
    out[7 + 2 * e10[point], point] = 46
    for j in np.flatnonzero(~fast).tolist():
        text = np.frombuffer(b"%.17g" % x[j], dtype=np.uint8)
        out[:, j] = 0
        out[:text.size, j] = text
    return out


def row_text(frames) -> bytes:
    """The rows of a block: its frames stacked, read column by column, NULs dropped."""
    rows = np.concatenate(frames)
    return rows[rows.any(axis=1)].T.tobytes().translate(None, b"\0")


# float_frame took 89 ns per value in 2048-value blocks (16 kB of float64, so
# its temporaries stay in cache), and 129-137 ns in 1024-, 4096- and 8192-value
# blocks (CPython 3.11, numpy 2.4).
BLOCK_ROWS = 2048
# float_frame costs about 60 us even on a few values, what % takes for about 160
# floats.  The kernel overtook % at about 200 rows on in-memory blocks and at
# about 400 on _write_result calls that wrote real files, so a block shorter
# than KERNEL_ROWS is one % per file.  % grows its text by reallocation, and
# 4096-row % blocks fragmented the heap of a long ingest loop (+2 MB per 100
# 20k-row ingests): no % block reaches KERNEL_ROWS rows.
KERNEL_ROWS = 512


def write_csvs(config_hash: str, times, files: dict, saturated=None):
    """Write files ({path: (header, column)}) row by row, t, column value and, when
    saturated is given, the flag; every file shares a block's t text and flags."""
    with contextlib.ExitStack() as stack:
        handles = []
        for path, (header, column) in files.items():
            fh = stack.enter_context(open(path, "wb"))
            fh.write(f"# config_hash={config_hash}\n{header}\n".encode())
            handles.append((fh, column))
        for start in range(0, len(times), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            t = times[block]
            flags = None if saturated is None else saturated[block]
            text = (_kernel_rows if t.size >= KERNEL_ROWS else _percent_rows)(t, flags)
            for fh, column in handles:
                fh.write(text(column[block]))


def _kernel_rows(t, flags):
    """The text of a block's rows as a function of their column: one float_frame for
    t and one per column."""
    t = float_frame(t)
    comma = np.full((1, t.shape[1]), 44, dtype=np.uint8)
    tail = np.full((1 if flags is None else 3, t.shape[1]), 10, dtype=np.uint8)
    if flags is not None:  # ",0\n" or ",1\n"
        tail[0] = 44
        tail[1] = flags + np.uint8(48)
    return lambda column: row_text([t, comma, float_frame(column), tail])


def _percent_rows(t, flags):
    """The text of a block's rows as a function of their column: one % per column
    over head, %.17g and tail."""
    n = t.size
    values = [None] * (3 * n)
    values[::3] = (b"%.17g,\n" * n % tuple(t.tolist())).splitlines()
    values[2::3] = [b"\n"] * n if flags is None else map((b",0\n", b",1\n").__getitem__, flags.tolist())
    form = b"%s%.17g%s" * n

    def text(column):
        values[1::3] = column.tolist()
        return form % tuple(values)
    return text
