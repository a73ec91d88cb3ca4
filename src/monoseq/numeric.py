"""Outward-rounded rational bounds for sqrt, log2 and exp.

The bound checkers compare exact integer counts against thresholds that
involve sqrt, log2 and exp(-x).  Floats could tip a comparison the wrong
way, so every irrational quantity is replaced by a rational bound rounded
in the direction that makes the reported threshold at least as strong as
the real one.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from math import isqrt

from .errors import ValidationError

_SQRT_SCALE_BITS = 40
_LOG2_DENOM = 64
_EXP_TERMS = 40


def sqrt_upper(x: int) -> Fraction:
    """Rational upper bound on sqrt(x) for a nonnegative integer x."""
    if x < 0:
        raise ValidationError("sqrt_upper: negative argument")
    scale = 1 << _SQRT_SCALE_BITS
    r = isqrt(x * scale * scale)
    if r * r < x * scale * scale:
        r += 1
    return Fraction(r, scale)


def log2_lower(x: int) -> Fraction:
    """Rational lower bound on log2(x) for a positive integer x.

    Uses 2**a <= x**_LOG2_DENOM, so the bound is exact for powers of two.
    """
    if x < 1:
        raise ValidationError("log2_lower: argument must be positive")
    a = (x**_LOG2_DENOM).bit_length() - 1
    return Fraction(a, _LOG2_DENOM)


def log2_upper(x: int) -> Fraction:
    """Rational upper bound on log2(x) for a positive integer x."""
    if x < 1:
        raise ValidationError("log2_upper: argument must be positive")
    p = x**_LOG2_DENOM
    a = p.bit_length() - 1
    if (1 << a) < p:
        a += 1
    return Fraction(a, _LOG2_DENOM)


def exp_lower(x: Fraction) -> Fraction:
    """Rational lower bound on exp(x) for x >= 0 (truncated Taylor series)."""
    if x < 0:
        raise ValidationError("exp_lower: argument must be nonnegative")
    term = Fraction(1)
    total = Fraction(1)
    for t in range(1, _EXP_TERMS + 1):
        term = term * x / t
        total += term
    return total


def exp_neg_upper(x: Fraction) -> Fraction:
    """Rational upper bound on exp(-x) for x >= 0."""
    return 1 / exp_lower(x)


def _scaled_log2_bounds(m: int, bits: int) -> tuple[int, int]:
    """Integers lo, hi with lo <= log2(m) * 2**bits <= hi, for an integer m >= 1.

    log2(m) = e + log2(y) with y = m / 2**e in [1, 2).  Squaring y shifts
    the binary digits of log2(y) one place left, and y**2 >= 2 reads off a
    digit 1, after which y is halved.  y is carried in fixed point, once
    rounded down and once rounded up: the rounded-down copy can only read
    digits too small and the rounded-up copy, which stays at most 2, can
    only fall short by less than one unit in the last place.
    """
    e = m.bit_length() - 1
    prec = bits + 32
    two = 2 << prec
    lo = (m << prec) >> e
    hi = -((-m << prec) >> e)
    digits_lo = digits_hi = 0
    for _ in range(bits):
        lo = lo * lo >> prec
        hi = -(-hi * hi >> prec)
        digits_lo, digits_hi = 2 * digits_lo, 2 * digits_hi
        if lo >= two:
            digits_lo, lo = digits_lo + 1, lo >> 1
        if hi >= two:
            digits_hi, hi = digits_hi + 1, -(-hi >> 1)
    return (e << bits) + digits_lo, (e << bits) + digits_hi + 1


def ceil_pow2_of_sqrt_minus_one(t: int) -> int:
    """ceil(2 ** (sqrt(t) - 1)) computed exactly for a positive integer t.

    For square t the value is an exact power of two.  Otherwise, with
    s = isqrt(t), it lies strictly between 2**(s-1) and 2**s, and the
    ceiling is the least integer c there with log2(2c) > sqrt(t).
    log2(2c) never equals sqrt(t): 2**sqrt(t) is transcendental
    (Gelfond-Schneider).  Each test compares integer bounds on both sides
    scaled by 2**bits, sqrt(t) by isqrt, and doubles bits until they part.
    A decimal estimate carried to about 30 digits past the integer part of
    2**(sqrt(t)-1), clamped into the bracket, is moved by unit steps until
    the exact test holds at it and fails one below; a correct estimate
    takes no step.
    """
    if t < 1:
        raise ValidationError("threshold defined for positive t only")
    s = isqrt(t)
    if s * s == t:
        return 1 << (s - 1)

    def above(c: int) -> bool:
        bits = 16
        while True:
            # sqrt(t) * 2**bits lies strictly between r and r + 1.
            r = isqrt(t << 2 * bits)
            lo, hi = _scaled_log2_bounds(2 * c, bits)
            if lo > r:
                return True
            if hi <= r:
                return False
            bits *= 2

    low, high = 1 << (s - 1), 1 << s  # above(low) is False, above(high) True
    with localcontext() as ctx:
        ctx.prec = 31 * s // 100 + 30
        est = int((Decimal(2) ** (Decimal(t).sqrt() - 1)).to_integral_value(ROUND_CEILING))
    c = min(max(est, low + 1), high)
    while above(c - 1):
        c -= 1
    while not above(c):
        c += 1
    return c
