"""The glued 2-3 solenoid over the figure eight, truncated with honest precision.

The fibre is the set of binary digit strings of a fixed length (a truncated
2-adic integer). Petal ``a`` adds one on the binary side, exactly. Petal
``b`` adds one on the ternary side *through the glue*: decode the binary
digits, add one to the decoded ternary truncation, re-encode. Decoding a
cut binary string determines only finitely many ternary digits, so every
b-step reports the ternary precision it achieved, and the length of its
output is its binary precision; nothing is silently truncated or padded.

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

CENTRALIZER_MAX_PRECISION = 4  # the cross-check takes up to 2 * 4^m b-steps


@dataclass(frozen=True)
class AmalgamModel:
    """Truncation of the glued double solenoid at a fixed binary precision."""

    binary_precision: int

    def __post_init__(self) -> None:
        if self.binary_precision < 2:
            raise ValueError("binary precision must be >= 2")


@dataclass(frozen=True)
class BStepResult:
    """Output digits of one glued +1 step with its precision accounting."""

    digits: str
    ternary_precision: int


def b_step(digits: str) -> BStepResult:
    """Glued ternary +1: decode, add, re-encode, with tracked precision."""
    decoded = glue_forward(GLUE, digits)
    m3 = len(decoded.digits)
    if m3 == 0:
        raise ValueError(
            f"{len(digits)} binary digits determine no ternary digit; "
            "increase the binary precision"
        )
    value = (digits_to_int(decoded.digits, 3) + 1) % 3**m3
    out = glue_backward(GLUE, int_to_digits(value, 3, m3))
    return BStepResult(out, m3)


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
    survivors = []
    for s in range(size):
        ok = True
        for x in range(size):
            digits = int_to_digits(x, 2, m2)
            shifted = int_to_digits((x + s) % size, 2, m2)
            left = b_step(shifted)
            right = b_step(digits)
            p = min(len(left.digits), len(right.digits))
            lv = digits_to_int(left.digits, 2) % 2**p
            rv = (digits_to_int(right.digits, 2) + s) % 2**p
            if lv != rv:
                ok = False
                break
        if ok:
            survivors.append(s)
    return survivors
