"""Shortest round-trip text of a float64 table, byte for byte as ``repr``.

``csv_rows(table)`` returns the same text as
``"".join(",".join(map(repr, row)) + "\\n" for row in table.tolist())``
for a 2-D float64 table, but formats whole blocks of values with numpy
instead of one ``repr`` call per value. It works in blocks of
``BLOCK_ROWS`` rows, so its temporaries stay a few hundred kilobytes
whatever the table's length.

Digits. CPython's ``repr`` prints the shortest decimal string that reads
back as the same double, and of those the one nearest its exact value.
Ryu (Adams, PLDI 2018) finds the same digits with integer arithmetic:
it scales the double and its two rounding bounds by one power of five,
vr = floor(4 m 5^i / 2^q) and the like for vp and vm, and removes
decimal digits while the interval (vm, vp] still holds a number with
fewer of them, rounding vr on the last digit removed. Here the power of
five comes from a 326-entry table of 5^i at 125 bits, built from Python
ints on the first call (``_tables``), never at import. Each product is
held as six 29-bit limbs in int64 arrays, so no partial product or
column sum overflows and nothing wraps. Only Ryu's common case is
vectorized: a normal double below 2^50 (binary exponent e2 <= -5, so the
decimal scale q is at least 2) whose scaled product does not end in
zeros. Every other value is formatted by ``repr`` itself: zero, -0.0,
subnormals, inf, nan, |x| >= 2^50 and the products that end in zeros,
which include every whole number. So the bytes match by construction.

Text. ``repr`` prints fixed notation when the decimal point position
decpt (value = 0.d1 d2 ... x 10^decpt) satisfies -4 < decpt <= 16 and
scientific notation with at least two exponent digits otherwise; a
value of the common case is never whole and stays below 10^16, so it
needs neither the ".0" suffix nor a positive exponent. Each value gets
one fixed-width byte field: sign, "0." and up to three zeros when decpt
<= 0, the digits right-aligned with the dot inserted among them, the
exponent and the separator. Unused bytes are zero, and one
``bytes.translate(None, b"\\0")`` drops them all. The field of a value
left to ``repr`` holds only the byte 1 and the separator, and the
value's ``repr`` is spliced in where the byte stood.
"""

from __future__ import annotations

from functools import cache

import numpy as np

BLOCK_ROWS = 1024  # rows formatted at once
LIMB = 29  # bits per limb of the 5^i products
LIMB_MASK = (1 << LIMB) - 1
POW10 = 10 ** np.arange(19, dtype=np.int64)
# Field bytes: 0 sign, 1-5 "0." and zeros, 6-23 digits and dot,
# 24-28 exponent, 29 separator.
WIDTH = 30
DIGITS = slice(6, 24)
LAST_DIGIT = 23
EXPONENT = 24
NO_DOT = 18  # a dot position past every digit
# A common-case double whose bits stand in for those left to repr, so that
# the vectorized arithmetic sees only valid exponents.
STAND_IN = int(np.float64(0.1).view(np.int64))


@cache
def _tables():
    """Read-only lookup tables: 5^i at 125 bits, floor(5^i / 2^(b - 125))
    for b the bit length of 5^i (exact for i < 54), as five 29-bit limbs,
    shape (5, 326); and the text of two digits 00-99 as little-endian
    byte pairs, then the same with leading zeros blank (index + 100)."""
    rows = []
    for i in range(326):
        power = 5**i
        shift = power.bit_length() - 125
        mul = power >> shift if shift >= 0 else power << -shift
        rows.append([(mul >> (LIMB * b)) & LIMB_MASK for b in range(5)])
    limbs = np.array(rows, dtype=np.int64).T.copy()
    r = np.arange(100)
    zero = ord("0")
    pairs = (zero + r // 10) | (zero + r % 10) << 8
    leading = np.where(r < 10, (zero + r) << 8, pairs) * (r > 0)
    text = np.concatenate([pairs, leading]).astype("<u2")
    for table in (limbs, text):
        table.flags.writeable = False
    return limbs, text


def _scaled(mag: np.ndarray):
    """Ryu's scaled value and bounds for int64 bit patterns of positive
    normal doubles below 2^50: vr, vp and vm, the double and the ends of
    the interval that rounds to it in units of 10^e10, e10, and a mask of
    the values whose scaled product ends in zeros (outside the common
    case; their other results are not meaningful)."""
    limbs, _ = _tables()
    exp2 = mag >> 52
    m2 = mag & ((1 << 52) - 1)
    # the lower bound is half as far below a power of two (fraction 0)
    lower = -2 + ((m2 == 0) & (exp2 > 1))
    m2 |= 1 << 52
    # value = m2 2^(e2 + 2): mv = 4 m2 leaves room for the bounds
    e2 = exp2 - 1077
    q = ((-e2 * 732923) >> 20) - 1  # floor(-e2 log10 5) - 1, at least 2
    i = -e2 - q
    j = q + 124 - ((i * 1217359) >> 19)  # q - (bits of 5^i - 125), 118-121
    zeros = ((m2 << 2) & ((1 << np.minimum(q, 56)) - 1)) == 0
    a = [limbs[b].take(i) for b in range(5)]
    low = m2 & LIMB_MASK
    m2 >>= LIMB
    # z = m2 * a in normalised limbs; top holds every bit from 145 up
    z = [a[0] * low]
    for b in range(1, 5):
        limb = a[b] * low
        limb += a[b - 1] * m2
        limb += z[b - 1] >> LIMB
        z[b - 1] &= LIMB_MASK
        z.append(limb)
    top = a[4] * m2
    top += z[4] >> LIMB
    z[4] &= LIMB_MASK
    # vr = floor(4 z / 2^j); the rest, 4 z mod 2^j, decides the bounds
    j -= 118
    vr = top << (29 - j)
    vr |= z[4] >> j
    z[4] &= (1 << j) - 1
    j += 2
    bounds = []
    for scale in (2, lower):
        carry = 0
        for b in range(5):
            limb = a[b] * scale
            limb += z[b] << 2
            limb += carry
            carry = limb >> LIMB
        limb >>= j
        limb += vr
        bounds.append(limb)
    return vr, *bounds, q + e2, zeros


def _shortest(mag: np.ndarray):
    """Ryu's common case (see ``_scaled``): the shortest digits as an
    integer, their count and decpt, and the mask of values outside it."""
    vr, vp, vm, e10, zeros = _scaled(mag)
    count = 17 + (vr >= POW10[17]) + (vr >= POW10[18])
    # remove digits while (vm, vp] still holds a number with fewer: the
    # bounds lie 23 to 513 units apart (5^i at 125 bits over 2^j, j in
    # [118, 121], times 3 or 4), so the first digit always goes, and once
    # three have gone (vm, vp] holds one integer, vm + 1, the answer
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
    idx, sp, sm = deep, vp[deep], vm[deep]
    while idx.size:
        sp //= 10
        sm //= 10
        vm[idx] = sm
        removed[idx] += 1
        go = np.flatnonzero(sp // 10 > sm // 10)
        idx, sp, sm = idx[go], sp[go], sm[go]
    vr[deep] = vm[deep]
    vr += (vr == vm) | round_up
    # rounding up adds a digit only when it removed every digit (0 -> 1)
    count -= removed
    count += vr >= POW10.take(count)
    e10 += removed
    e10 += count
    return vr, count, e10, zeros


def _block(table: np.ndarray) -> bytes:
    """CSV text of one C-contiguous block of rows."""
    rows, cols = table.shape
    flat = table.ravel()
    bits = flat.view(np.int64)
    mag = bits & ((1 << 63) - 1)
    exp2 = mag >> 52
    slow = (exp2 == 0) | (exp2 > 1072)
    np.copyto(mag, STAND_IN, where=slow)
    digits, count, decpt, zeros = _shortest(mag)
    slow |= zeros
    sci = decpt < -3
    small = ~sci & (decpt <= 0)
    # digits after the dot: decpt of them stand before it in fixed
    # notation, one in scientific notation
    dot = np.where(sci, count - 1, count - decpt)
    np.copyto(dot, NO_DOT, where=slow | small | (dot == 0))
    # open a 0 digit at the dot's place: head 10^(dot+1) + tail
    scale = POW10.take(dot)
    spread = digits // scale
    spread *= scale
    spread *= 9
    digits += spread
    f = np.zeros((len(flat), WIDTH), np.uint8)
    f[:, 0] = (bits < 0) * ord("-")
    f[:, 1] = small * ord("0")
    f[:, 2] = small * ord(".")
    for zero in range(3):
        f[:, 3 + zero] = (small & (decpt < -zero)) * ord("0")
    _, text = _tables()
    pairs = f[:, DIGITS].view("<u2")
    for k in range(pairs.shape[1] - 1, -1, -1):
        rest = digits // 100
        pair = digits - 100 * rest
        pair += (rest == 0) * 100  # the leading pair and any above it
        pairs[:, k] = text.take(pair)
        digits = rest
    has = np.flatnonzero(dot < NO_DOT)
    f[has, LAST_DIGIT - dot[has]] = ord(".")
    at = np.flatnonzero(sci)
    if at.size:
        e = 1 - decpt[at]  # the exponent's magnitude, 5 to 308
        f[at, EXPONENT] = ord("e")
        f[at, EXPONENT + 1] = ord("-")
        f[at, EXPONENT + 2] = (e >= 100) * (ord("0") + e // 100)
        f[at, EXPONENT + 3] = ord("0") + e // 10 % 10
        f[at, EXPONENT + 4] = ord("0") + e % 10
    fields = f.reshape(rows, cols, WIDTH)
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


def csv_rows(table) -> str:
    """Rows of a 2-D float64 table as CSV text, each value as its
    ``repr``, one line per row with a final newline."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    return b"".join(_block(table[start:start + BLOCK_ROWS])
                    for start in range(0, len(table), BLOCK_ROWS)
                    ).decode("ascii")
