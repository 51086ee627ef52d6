"""Shortest round-trip text of a float64 table, byte for byte as ``repr``.

``csv_rows(table)`` returns the ASCII bytes of
``"".join(",".join(map(repr, row)) + "\\n" for row in table.tolist())``
for a 2-D float64 table, formatting ``BLOCK_ROWS`` rows at a time with
numpy, so its temporaries stay a few hundred kilobytes.

Digits. ``repr`` prints the shortest decimal string that reads back as
the same double, and of those the one nearest its exact value. Ryu
(Adams, PLDI 2018) scales the double and its two rounding bounds by
C = 5^i / 2^q, vr = floor(mv C) for mv = 4 m and the like for vp and vm,
then removes digits while (vm, vp] still holds a number with fewer of
them, rounding vr on the last digit removed. Here C is a double-double
Ch + Cl from a per-exponent table built from Python ints on the first
call (``_tables``), mv Ch is formed exactly as a double and its error by
Dekker's two-product (Numer. Math. 1971), and as in Grisu3 (Loitsch,
PLDI 2010) a floor is certified when its fraction, known to 2^-40, lies
in [MARGIN, 1 - MARGIN] (``_scaled``). ``repr`` itself formats every
value with an uncertain floor, which includes each exact product mv C
and so each whole number, and subnormals, inf, nan and |x| >= 2^50. Zero
and -0.0 are written in place. So the bytes match by construction.

Text. ``repr`` uses fixed notation for -4 < decpt <= 16 (value = 0.d1
d2 ... x 10^decpt), else scientific with at least two exponent digits; a
vectorized value is never whole and stays below 10^16. Each value gets a
fixed-width field (see ``WIDTH``) whose unused bytes are zero, and one
``bytes.translate`` drops them; the ``repr`` of a value left to it is
spliced in where its field's byte 1 stood.
"""

from __future__ import annotations

from functools import cache

import numpy as np

BLOCK_ROWS = 1024  # rows formatted at once
MARGIN = 2.0**-30  # least distance of a certified fraction from 0 and 1
POW10 = 10 ** np.arange(19, dtype=np.int64)
# Field bytes: 0 sign, 1-5 "0." and zeros, 6-23 digits (a pair, then four
# groups of four) and dot, 24-28 exponent, 29 separator.
WIDTH = 30
LAST_DIGIT = 23
EXPONENT = 24
NO_DOT = 18  # a dot position past every digit
# A common-case double whose bits stand in for those left to repr, so that
# the vectorized arithmetic sees only valid exponents.
STAND_IN = int(np.float64(0.1).view(np.int64))


def _decimal_scale(exp2):
    """Ryu's e2 and q of a biased exponent: the double is mv 2^e2 / 4."""
    e2 = exp2 - 1077
    return e2, ((-e2 * 732923) >> 20) - 1  # floor(-e2 log10 5) - 1


def _digit_text(width: int) -> np.ndarray:
    """The text of every ``width``-digit group as little-endian bytes,
    then the same with leading zeros blank (index + 10^width)."""
    r = np.arange(10**width)[:, None]
    places = 10 ** np.arange(width - 1, -1, -1)
    text = (ord("0") + r // places % 10).astype(np.uint8)
    return np.concatenate([text, text * (r >= places)]).view(
        f"<u{width}").ravel()


@cache
def _tables():
    """Read-only lookup tables: C = 5^i / 2^q of each biased exponent as
    rows Ch, Ch's two Veltkamp halves of 26 bits and Cl, shape (4, 1073),
    5^i and its rest rounded to doubles and scaled, |Ch + Cl - C| <=
    2^-106 C; the text of two- and four-digit groups; and the sign and
    "0." prefix, at 5 * negative + (1 - decpt if decpt <= 0 else 0)."""
    powers = [5**i for i in range(327)]
    heads = [float(power) for power in powers]
    rests = [float(power - int(head)) for power, head in zip(powers, heads)]
    e2, q = _decimal_scale(np.arange(1073))
    ch = np.ldexp(np.take(heads, -e2 - q), -q)
    split = ch * (2.0**27 + 1)
    hi = split - (split - ch)
    cl = np.ldexp(np.take(rests, -e2 - q), -q)
    scale = np.stack([ch, hi, ch - hi, cl])
    prefix = np.frombuffer(b"".join(
        (sign + b"0.000"[:kind + 1] * (kind > 0)).ljust(8, b"\0")
        for sign in (b"\0", b"-") for kind in range(5)), "<u8").copy()
    tables = scale, _digit_text(2), _digit_text(4), prefix
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(mag: np.ndarray):
    """Ryu's scaled value and bounds for int64 bit patterns of positive
    normal doubles below 2^50: vr, vp and vm, the double and the ends of
    the interval that rounds to it in units of 10^e10, e10, and the mask
    of values with an uncertain floor, whose other results mean nothing.

    Error bound: mv < 2^55 and 10 < C < 2^7, so 2^57 < mv Ch < 2^62, an
    integer and an int64. Its exact error and mv Cl lie below 2^8, so
    rounding mv Cl and their sum costs 2^-45 each, the table's 2^-104 C
    2^-42; a bound's offset added to the fraction costs 2^-46 and the
    2 Cl or Cl it leaves out under 2^-46. So every fraction is within
    2^-41, far inside the margin of 2^-30."""
    exp2 = mag >> 52
    m2 = mag & ((1 << 52) - 1)
    # the lower bound is half as far below a power of two (fraction 0)
    lower = ((m2 == 0) & (exp2 > 1)) - 2.0
    m2 |= 1 << 52
    e2, q = _decimal_scale(exp2)
    ch, hi, lo, cl = (row.take(exp2) for row in _tables()[0])
    # mv = 4 m2 = mh + ml, each with at most 26 significant bits
    mv = (m2 << 2).astype(np.float64)
    mh = ((m2 + (1 << 26)) >> 27 << 29).astype(np.float64)
    ml = mv - mh
    whole = mv * ch
    part = mh * hi
    part -= whole  # Dekker: the exact error of whole, then mv Cl
    part += mh * lo
    part += ml * hi
    part += ml * lo
    part += mv * cl
    floor = np.floor(part)
    part -= floor
    vr = whole.astype(np.int64) + floor.astype(np.int64)
    uncertain = np.abs(part - 0.5) > 0.5 - MARGIN
    bounds = []
    for offset in (2.0, lower):
        end = offset * ch
        end += part
        floor = np.floor(end)
        uncertain |= np.abs(end - floor - 0.5) > 0.5 - MARGIN
        bounds.append(vr + floor.astype(np.int64))
    return vr, *bounds, q + e2, uncertain


def _shortest(mag: np.ndarray):
    """Ryu's common case (see ``_scaled``): the shortest digits as an
    integer, their count and decpt, and the mask of values outside it."""
    vr, vp, vm, e10, uncertain = _scaled(mag)
    count = 17 + (vr >= POW10[17]) + (vr >= POW10[18])
    # remove digits while (vm, vp] still holds a number with fewer: it is
    # 3C - 1 to 4C + 1 units wide, 29 to 400, so the first digit always
    # goes, and once three have gone it holds one integer, vm + 1, the answer
    vp //= 100
    vm //= 10
    kept = vr // 10
    round_up = vr - 10 * kept >= 5
    vr = kept
    kept = vm // 10
    two = vp > kept
    np.copyto(vm, kept, where=two)
    kept = vr // 10
    np.copyto(round_up, vr - 10 * kept >= 5, where=two)
    np.copyto(vr, kept, where=two)
    removed = two + 1
    deep = np.flatnonzero(two & (vp // 10 > vm // 10))
    # the third digit and then by bisection the most further ones, at most
    # 15 as vp < 10^19: once one cannot go, no later one can
    sp = vp[deep] // 10
    sm = vm[deep] // 10
    more = np.ones_like(sp)
    for stride in (8, 4, 2, 1):
        hp = sp // 10**stride
        hm = sm // 10**stride
        go = hp > hm
        np.copyto(sp, hp, where=go)
        np.copyto(sm, hm, where=go)
        more += go * stride
    removed[deep] += more
    vm[deep] = sm
    vr[deep] = sm
    vr += (vr == vm) | round_up
    # rounding up adds a digit only when it removed every digit (0 -> 1)
    count -= removed
    count += vr >= POW10.take(count)
    e10 += removed
    e10 += count
    return vr, count, e10, uncertain


def _block(table: np.ndarray) -> bytes:
    """CSV text of one C-contiguous block of rows."""
    flat = table.ravel()
    bits = flat.view(np.int64)
    mag = bits & ((1 << 63) - 1)
    exp2 = mag >> 52
    zero = mag == 0
    slow = (exp2 == 0) ^ zero | (exp2 > 1072)
    np.copyto(mag, STAND_IN, where=slow | zero)
    digits, count, decpt, uncertain = _shortest(mag)
    slow |= uncertain
    # zero is "0.0": the prefix of decpt -1 and no digits
    np.copyto(digits, 0, where=zero)
    np.copyto(decpt, -1, where=zero)
    sci = decpt < -3
    small = ~sci & (decpt <= 0)
    # digits after the dot: decpt of them stand before it in fixed
    # notation, one in scientific notation
    dot = np.where(sci, count - 1, count - decpt)
    np.copyto(dot, NO_DOT, where=slow | small | (dot == 0))
    # open a 0 digit at the dot's place: head 10^(dot+1) + tail
    scale = POW10.take(dot)
    digits += digits // scale * scale * 9
    _, pairs, groups, prefixes = _tables()
    f = np.zeros((len(flat), WIDTH), np.uint8)
    f[:, :8].view("<u8")[:, 0] = prefixes.take(  # bytes 6-7 follow
        (1 - decpt) * small + 5 * (bits < 0))
    out = f[:, 8:LAST_DIGIT + 1].view("<u4")
    for k in range(3, -1, -1):
        rest = digits // 10**4
        group = digits - 10**4 * rest
        group += (rest == 0) * 10**4  # the leading group and any above it
        out[:, k] = groups.take(group)
        digits = rest
    f[:, 6:8].view("<u2")[:, 0] = pairs.take(digits + 100)
    has = np.flatnonzero(dot < NO_DOT)
    f[has, LAST_DIGIT - dot[has]] = ord(".")
    at = np.flatnonzero(sci)
    if at.size:
        e = 1 - decpt[at, None]  # the exponent's magnitude, 5 to 308
        text = ord("0") + e // [100, 10, 1] % 10
        text[:, 0] *= e[:, 0] >= 100
        f[at, EXPONENT:EXPONENT + 2] = ord("e"), ord("-")
        f[at, EXPONENT + 2:EXPONENT + 5] = text
    fields = f.reshape(*table.shape, WIDTH)
    fields[:, :-1, -1] = ord(",")
    fields[:, -1, -1] = ord("\n")
    at = np.flatnonzero(slow)
    f[at, :-1] = 0
    f[at, 0] = 1
    out = f.tobytes().translate(None, b"\0")
    if not at.size:
        return out
    parts = out.split(b"\1")
    spliced = [b""] * (2 * len(parts) - 1)
    spliced[::2] = parts
    spliced[1::2] = [repr(v).encode() for v in flat[at].tolist()]
    return b"".join(spliced)


def csv_rows(table) -> bytes:
    """Rows of a 2-D float64 table as CSV bytes, each value as its
    ``repr``, one line per row with a final newline."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    return b"".join(_block(table[start:start + BLOCK_ROWS])
                    for start in range(0, len(table), BLOCK_ROWS))
