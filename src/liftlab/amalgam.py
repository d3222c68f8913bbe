"""The glued 2-3 solenoid over the figure eight, truncated with honest precision.

The fibre is the set of binary digit strings of a fixed length (a truncated
2-adic integer). Petal ``a`` adds one on the binary side, exactly. Petal
``b`` adds one on the ternary side *through the glue*: decode the binary
digits, add one to the decoded ternary truncation, re-encode. Decoding a
cut binary string determines only finitely many ternary digits, so the
output of every b-step encodes exactly the ternary digits it achieved, one
codeword each: the number of codewords is its ternary precision and its
length is its binary precision; nothing is silently truncated or padded.

That the b-step does not descend to a fixed finite quotient is the whole
point: it is why the glued system is not an inverse limit of finite covers
and why the translation-pair deck search below finds only the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profinite import (
    PrefixCodeHomeo,
    default_glue,
    digits_to_int,
    glue_backward,
    glue_forward,
    int_to_digits,
)

GLUE: PrefixCodeHomeo = default_glue()  # the code every truncation is glued with

# the cross-check takes two b-steps per point until a translation fails one:
# 14, 36 and 70 b-steps at precision 2, 3 and 4
CENTRALIZER_MAX_PRECISION = 4


@dataclass(frozen=True)
class AmalgamModel:
    """Truncation of the glued double solenoid at a fixed binary precision."""

    binary_precision: int

    def __post_init__(self) -> None:
        if self.binary_precision < 2:
            raise ValueError("binary precision must be >= 2")


def b_step(digits: str) -> str:
    """Glued ternary +1: decode, add one, re-encode every ternary digit decoded."""
    bad = digits.strip("01")  # starts at the first non-binary character
    if bad:
        raise ValueError(f"digit {bad[0]!r} out of range for base 2")
    decoded = glue_forward(GLUE, digits)
    m3 = len(decoded.digits)
    if m3 == 0:
        raise ValueError(
            f"{len(digits)} binary digits determine no ternary digit; "
            "increase the binary precision"
        )
    value = (digits_to_int(decoded.digits, 3) + 1) % 3**m3
    return glue_backward(GLUE, int_to_digits(value, 3, m3))


@dataclass(frozen=True)
class TranslationPair:
    """A candidate deck transformation: +s on the binary side, +u ternary."""

    binary_offset: int
    ternary_offset: int
    ternary_precision: int


def translation_deck_search(model: AmalgamModel) -> list[TranslationPair]:
    """All translation pairs compatible with the glue at this truncation.

    A deck transformation of the glued system restricts to a translation on
    each side, so it is determined by a pair (s, u) with
    glue(x + s) = glue(x) + u for every x. Each fibre point is decoded to
    its achieved ternary precision, so all points are compared at the least
    of them, the common precision; s survives only if every x reads off the
    same u there. The identity (0, 0) always survives; rigidity predicts
    nothing else does.
    """
    m2 = model.binary_precision
    size = 2**m2
    decoded = [glue_forward(GLUE, int_to_digits(x, 2, m2)) for x in range(size)]
    values = [digits_to_int(res.digits, 3) for res in decoded]
    common = min(len(res.digits) for res in decoded)
    modulus = 3**common
    survivors = []
    for s in range(size):
        offset = (values[s] - values[0]) % modulus
        if all(
            (values[(x + s) % size] - values[x]) % modulus == offset
            for x in range(size)
        ):
            survivors.append(TranslationPair(s, offset, common))
    return survivors


def centralizer_deck_search(model: AmalgamModel) -> list[int]:
    """Binary translations commuting with the b-step at tracked precision.

    The exact centralizer of the binary +1 petal is the full translation
    group, so candidates are the 2^m translations; each is kept only if
    translating before or after the glued step agrees on every fibre point
    to the shorter of the two certified outputs. Offered at small precision
    as an independent cross-check of the translation-pair search.
    """
    m2 = model.binary_precision
    if m2 > CENTRALIZER_MAX_PRECISION:
        raise ValueError(
            "full centralizer cross-check is limited to precision <= "
            f"{CENTRALIZER_MAX_PRECISION}"
        )
    size = 2**m2
    points = [int_to_digits(x, 2, m2) for x in range(size)]
    survivors = []
    for s in range(size):
        for x in range(size):
            left = b_step(points[(x + s) % size])
            right = b_step(points[x])
            p = min(len(left), len(right))
            if digits_to_int(left, 2) % 2**p != (digits_to_int(right, 2) + s) % 2**p:
                break
        else:
            survivors.append(s)
    return survivors
