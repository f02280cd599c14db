"""CSV cells as uint8 matrices, byte for byte what format() writes.

A writer turns an array of values into cells shaped values.shape + (width
+ 1,): each text right-aligned after 0 bytes, then a spare column, which
rows_text fills with the separator when it joins the rows of `sweep.csv`
and of every `trace_NNN.csv`. The digits come from integers that certify
themselves (Loitsch, "Printing floating-point numbers quickly and accurately
with integers", PLDI 2010), each product rounded exactly by _rint_exact;
Python's format writes only the values a writer's docstring names.
"""

from __future__ import annotations

import numpy as np

_POW10 = tuple(float(10**k) for k in range(23))  # 10^k, all exact


def _rint_exact(a, scale):
    """(p, n) for a float array a and scale, an exact power of ten up to 10^22
    or an array of them shaped like a: p = fl(a * scale) and n the exact
    product rounded half-even. Below 2^53 p's rounding settles a tie between
    integers as n does, so only a half-integer p reads the product's exact
    error: Dekker's error-free product, both factors split by Veltkamp."""
    with np.errstate(all="ignore"):
        p = a * scale
        n = np.rint(p)
        tie = np.flatnonzero(p - np.floor(p) == 0.5)
        t, s, pt = a.flat[tie], np.broadcast_to(scale, a.shape).flat[tie], p.flat[tie]
        th, sh = [(c := f * (2.0**27 + 1)) - (c - f) for f in (t, s)]  # high 26 bits
        e = th * sh - pt + th * (s - sh) + (t - th) * sh + (t - th) * (s - sh)  # t*s - pt
        n.flat[tie] = np.where(e != 0, pt + np.copysign(0.5, e), n.flat[tie])
    return p, n


def _put_digits(slot, v, lead: bool = False) -> None:
    """Writes the decimal digits of the unsigned ints v along the last axis
    of slot, a uint8 view, units digit last; with lead, the columns before a
    value's leading digit get 0 (pad) bytes."""
    last = slot.shape[-1] - 1
    for k in range(last, -1, -1):
        q = v // 10
        d = v - q * 10 + 48
        if lead and k < last:
            d *= v != 0
        slot[..., k] = d
        v = q


def _put_texts(slot, rows, texts: list[str]) -> None:
    """Writes texts into the given rows of slot, right-aligned after 0 bytes."""
    width = slot.shape[-1]
    cells = "".join(t.rjust(width, "\0") for t in texts).encode()
    slot[rows] = np.frombuffer(cells, np.uint8).reshape(len(texts), width)


def int_cells(v):
    """The decimal digits of each int of the 1-d array v, in 0..2^32 - 1."""
    v = v.astype(np.uint32)
    cells = np.zeros((len(v), len(str(int(v.max()))) + 1), np.uint8)
    _put_digits(cells[:, :-1], v, lead=True)
    return cells


def fixed_cells(v, places: int):
    """format(x, f'.{places}f') of each float x of the array v, any shape.

    The digits are _rint_exact(|x|, 10^places), and the sign is the sign bit
    (-0.0 reads -0.000...). Python's format writes only a non-finite x or one
    with |x| * 10^places >= 2^53."""
    p, n = _rint_exact(np.abs(v), _POW10[places])
    slow = np.flatnonzero(~(p < 2.0**53))  # nan and inf too
    texts = [format(x, f".{places}f") for x in v.flat[slow].tolist()]
    n = np.where(p < 2.0**53, n, 0).astype(np.uint64)
    whole = n // 10**places
    width = max([(digits := len(str(int(whole.max())))) + places + 2, *map(len, texts)])
    point = width - places - 1  # the sign and the whole digits come before it
    cells = np.zeros((*v.shape, width + 1), np.uint8)
    _put_digits(cells[..., point + 1:-1], (n - whole * 10**places).astype(np.uint32))
    cells[..., point] = ord(".")
    _put_digits(cells[..., point - digits:point], whole, lead=True)
    flat, neg = cells.reshape(-1, width + 1), np.flatnonzero(np.signbit(v))
    flat[neg, point - 1 - np.count_nonzero(flat[neg, :point], axis=-1)] = ord("-")
    _put_texts(flat[:, :-1], slow, texts)  # also over a sign put in a slow cell
    return cells


def sci_cells(e):
    """format(x, '.3e') of each float x of the 1-d array e.

    The mantissa is _rint_exact(x, 10^(3 - k)) in [1000, 10000] with k =
    floor(log10(x)), for x in [1e-19, 1e4); 10000 carries into k, and 0.0 is
    0.000e+00. Python's format writes any other x, and one whose fl(x *
    10^(3 - k)) falls outside [1000, 10000) (log10 off by one beside a power
    of ten)."""
    with np.errstate(all="ignore"):
        in_range = (e >= 1e-19) & (e < 1e4)
        k = np.clip(np.where(in_range, np.floor(np.log10(e)), 0), -19, 3).astype(np.int64)
    scaled, mant = _rint_exact(e, np.array(_POW10)[3 - k])
    k += (carry := mant == 1e4)
    mant[carry] = 1e3
    fast = in_range & (scaled >= 1e3) & (scaled < 1e4) | (e == 0) & ~np.signbit(e)
    slow = np.flatnonzero(~fast)
    texts = [format(v, ".3e") for v in e[slow].tolist()]
    mant[slow] = k[slow] = 0
    width = max([9, *map(len, texts)])
    cells, mant = np.zeros((len(e), width + 1), np.uint8), mant.astype(np.uint32)
    cells[:, width - 9] = mant // 1000 + 48
    cells[:, width - 8] = ord(".")
    _put_digits(cells[:, width - 7:width - 4], mant % 1000)
    cells[:, width - 4] = ord("e")
    cells[:, width - 3] = np.where(k < 0, ord("-"), ord("+"))
    _put_digits(cells[:, width - 2:width], np.abs(k).astype(np.uint32))
    _put_texts(cells[:, :-1], slow, texts)
    return cells


def rows_text(columns) -> str:
    """CSV rows from cell matrices of one row count, in column order (a
    matrix of shape (rows, k, width + 1) is k columns): a comma in every
    spare column but the row's last, which ends it with a newline."""
    for cells in columns:
        cells[..., -1] = ord(",")
    rows = np.concatenate([cells.reshape(len(cells), -1) for cells in columns], axis=1)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, bytes(1)).decode()  # drops the 0 bytes
