"""Bit-exact IEEE-754 binary32 software floating point.

The UPMEM DPU has no floating-point hardware: dpu-clang lowers every float
operation to a compiler-rt subroutine (``__addsf3``, ``__mulsf3``,
``__divsf3``, ``__ltsf2``, ``__floatsisf``, ...; paper Section 3.3 and
Fig. 3.2).  This module implements those subroutines functionally: each
function takes and returns *raw 32-bit patterns* (Python ints in
``[0, 2**32)``) and matches IEEE-754 round-to-nearest-even semantics
bit-for-bit (validated against numpy in the test suite).

Cycle accounting lives in :mod:`repro.dpu.runtime_calls`; this module is
purely functional so it can also serve as a reference model.
"""

from __future__ import annotations

import struct

_SIGN_MASK = 0x8000_0000
_EXP_MASK = 0x7F80_0000
_FRAC_MASK = 0x007F_FFFF
_IMPLICIT_BIT = 0x0080_0000
_QNAN = 0x7FC0_0000
_PLUS_INF = 0x7F80_0000
_MINUS_INF = 0xFF80_0000
_EXP_BIAS = 127
_INT32_MAX = 2**31 - 1
_INT32_MIN = -(2**31)


def float_to_bits(value: float) -> int:
    """Pack a Python float into its binary32 bit pattern (with rounding)."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_to_float(bits: int) -> float:
    """Unpack a binary32 bit pattern into a Python float."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFF_FFFF))[0]


def sign_of(bits: int) -> int:
    """The sign bit (0 or 1)."""
    return (bits >> 31) & 1


def exponent_of(bits: int) -> int:
    """The raw (biased) 8-bit exponent field."""
    return (bits >> 23) & 0xFF


def fraction_of(bits: int) -> int:
    """The 23-bit fraction field."""
    return bits & _FRAC_MASK


def is_nan(bits: int) -> bool:
    return exponent_of(bits) == 0xFF and fraction_of(bits) != 0


def is_inf(bits: int) -> bool:
    return exponent_of(bits) == 0xFF and fraction_of(bits) == 0


def is_zero(bits: int) -> bool:
    return (bits & ~_SIGN_MASK) == 0


def is_subnormal(bits: int) -> bool:
    return exponent_of(bits) == 0 and fraction_of(bits) != 0


def is_finite(bits: int) -> bool:
    return exponent_of(bits) != 0xFF


def _decompose(bits: int) -> tuple[int, int, int]:
    """Unpack a finite value into ``(sign, E, M)`` with value = M * 2**(E-150).

    Normals carry the implicit bit; subnormals use E = 1 with the bare
    fraction, which makes them exact under the same formula.
    """
    sign = sign_of(bits)
    exp = exponent_of(bits)
    frac = fraction_of(bits)
    if exp == 0:
        return sign, 1, frac
    return sign, exp, frac | _IMPLICIT_BIT


def _round_pack(sign: int, significand: int, exp: int) -> int:
    """Round/normalize ``(-1)**sign * significand * 2**(exp-150)`` to binary32.

    ``significand`` is an arbitrary-precision non-negative integer; rounding
    is round-to-nearest, ties-to-even; overflow produces a signed infinity,
    underflow a subnormal or signed zero.
    """
    if significand == 0:
        return sign << 31
    length = significand.bit_length()
    normal_exp = exp + length - 24
    if normal_exp >= 1:
        shift = length - 24
    else:
        # Result falls in the subnormal range: quantum is 2**(1-150).
        shift = 1 - exp
    if shift > 0:
        kept = significand >> shift
        rem = significand & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        if rem > half or (rem == half and (kept & 1)):
            kept += 1
    else:
        kept = significand << (-shift)
    result_exp = exp + shift
    if kept.bit_length() > 24:
        kept >>= 1
        result_exp += 1
    if kept < _IMPLICIT_BIT:
        # Subnormal (or zero after rounding); field exponent is 0.
        return (sign << 31) | kept
    if result_exp >= 0xFF:
        return _MINUS_INF if sign else _PLUS_INF
    return (sign << 31) | (result_exp << 23) | (kept & _FRAC_MASK)


def f32_neg(a: int) -> int:
    """Negate (flips the sign bit, even of NaN, like the hardware would)."""
    return (a ^ _SIGN_MASK) & 0xFFFF_FFFF


def f32_abs(a: int) -> int:
    """Absolute value (clears the sign bit)."""
    return a & ~_SIGN_MASK


def f32_add(a: int, b: int) -> int:
    """``__addsf3``: binary32 addition, round-to-nearest-even."""
    if is_nan(a) or is_nan(b):
        return _QNAN
    if is_inf(a):
        if is_inf(b) and sign_of(a) != sign_of(b):
            return _QNAN
        return a
    if is_inf(b):
        return b
    if is_zero(a) and is_zero(b):
        # +0 + -0 = +0; -0 + -0 = -0 (round-to-nearest rules).
        return a if a == b else 0
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    sign_a, exp_a, sig_a = _decompose(a)
    sign_b, exp_b, sig_b = _decompose(b)
    exp = min(exp_a, exp_b)
    sig_a <<= exp_a - exp
    sig_b <<= exp_b - exp
    total = (-sig_a if sign_a else sig_a) + (-sig_b if sign_b else sig_b)
    if total == 0:
        return 0  # exact cancellation is +0 in round-to-nearest
    sign = 1 if total < 0 else 0
    return _round_pack(sign, abs(total), exp)


def f32_sub(a: int, b: int) -> int:
    """``__subsf3``: binary32 subtraction (a - b)."""
    if is_nan(b):
        return _QNAN
    return f32_add(a, f32_neg(b))


def f32_mul(a: int, b: int) -> int:
    """``__mulsf3``: binary32 multiplication, round-to-nearest-even."""
    if is_nan(a) or is_nan(b):
        return _QNAN
    sign = sign_of(a) ^ sign_of(b)
    if is_inf(a) or is_inf(b):
        if is_zero(a) or is_zero(b):
            return _QNAN
        return _MINUS_INF if sign else _PLUS_INF
    if is_zero(a) or is_zero(b):
        return sign << 31
    _, exp_a, sig_a = _decompose(a)
    _, exp_b, sig_b = _decompose(b)
    return _round_pack(sign, sig_a * sig_b, exp_a + exp_b - 150)


def f32_div(a: int, b: int) -> int:
    """``__divsf3``: binary32 division, round-to-nearest-even."""
    if is_nan(a) or is_nan(b):
        return _QNAN
    sign = sign_of(a) ^ sign_of(b)
    if is_inf(a):
        if is_inf(b):
            return _QNAN
        return _MINUS_INF if sign else _PLUS_INF
    if is_inf(b):
        return sign << 31
    if is_zero(b):
        if is_zero(a):
            return _QNAN
        return _MINUS_INF if sign else _PLUS_INF
    if is_zero(a):
        return sign << 31
    _, exp_a, sig_a = _decompose(a)
    _, exp_b, sig_b = _decompose(b)
    # Scale the dividend so the quotient keeps >= 8 bits below the rounding
    # position, then fold the remainder into a sticky bit.
    scale = sig_b.bit_length() - sig_a.bit_length() + 32
    quotient, remainder = divmod(sig_a << scale, sig_b)
    if remainder:
        quotient |= 1
    return _round_pack(sign, quotient, exp_a - exp_b - scale + 150)


def f32_eq(a: int, b: int) -> bool:
    """``__eqsf2`` truth value: IEEE equality (NaN compares unequal)."""
    if is_nan(a) or is_nan(b):
        return False
    if is_zero(a) and is_zero(b):
        return True
    return (a & 0xFFFF_FFFF) == (b & 0xFFFF_FFFF)


def _order_key(bits: int) -> int:
    """Map non-NaN patterns to integers whose order matches float order."""
    if sign_of(bits):
        return -(bits & ~_SIGN_MASK)
    return bits & ~_SIGN_MASK


def f32_lt(a: int, b: int) -> bool:
    """``__ltsf2`` truth value: a < b (False on NaN)."""
    if is_nan(a) or is_nan(b):
        return False
    return _order_key(a) < _order_key(b)


def f32_le(a: int, b: int) -> bool:
    """``__lesf2`` truth value: a <= b (False on NaN)."""
    if is_nan(a) or is_nan(b):
        return False
    return _order_key(a) <= _order_key(b)


def f32_gt(a: int, b: int) -> bool:
    """``__gtsf2`` truth value: a > b (False on NaN)."""
    return f32_lt(b, a)


def f32_ge(a: int, b: int) -> bool:
    """``__gesf2`` truth value: a >= b (False on NaN)."""
    return f32_le(b, a)


def i32_to_f32(value: int) -> int:
    """``__floatsisf``: convert a signed 32-bit integer to binary32."""
    if not _INT32_MIN <= value <= _INT32_MAX:
        raise ValueError(f"{value} outside int32 range")
    if value == 0:
        return 0
    sign = 1 if value < 0 else 0
    return _round_pack(sign, abs(value), 150)


def u32_to_f32(value: int) -> int:
    """``__floatunsisf``: convert an unsigned 32-bit integer to binary32."""
    if not 0 <= value < 2**32:
        raise ValueError(f"{value} outside uint32 range")
    if value == 0:
        return 0
    return _round_pack(0, value, 150)


def f32_to_i32(bits: int) -> int:
    """``__fixsfsi``: convert binary32 to int32, truncating toward zero.

    Out-of-range values and NaN saturate (NaN to 0), the common hardware
    behaviour that compiler-rt implementations adopt.
    """
    if is_nan(bits):
        return 0
    if is_inf(bits):
        return _INT32_MIN if sign_of(bits) else _INT32_MAX
    if is_zero(bits):
        return 0
    sign, exp, sig = _decompose(bits)
    shift = exp - 150
    magnitude = sig << shift if shift >= 0 else sig >> (-shift)
    if sign:
        magnitude = -magnitude
    return max(_INT32_MIN, min(_INT32_MAX, magnitude))


#: Canonical quiet NaN produced by every invalid operation.
QNAN = _QNAN
PLUS_INF = _PLUS_INF
MINUS_INF = _MINUS_INF
PLUS_ZERO = 0x0000_0000
MINUS_ZERO = 0x8000_0000
MAX_FINITE = 0x7F7F_FFFF
MIN_NORMAL = 0x0080_0000
MIN_SUBNORMAL = 0x0000_0001
