"""Exact truncated p-adic arithmetic and the binary-to-ternary glue code.

A :class:`TruncatedPadic` is a p-adic integer known modulo ``base**precision``.
All operations are residue arithmetic with arbitrary-precision integers; no
floating point enters anywhere. Digit strings are ASCII, least significant
digit first, so ``"011"`` in base 2 denotes the residue 6. The results of
add, neg, sub and scale reuse their operand's checked base, precision and
modulus and are not checked again: that is exact, since each result has the
operand's base and precision and its residue is reduced mod that modulus.

The glue is the complete prefix-free binary code {0: 00, 1: 01, 2: 1} for
ternary digits. Reading a binary digit stream through the code
(``glue_forward``) is a homeomorphism from binary to ternary digit streams; on
finite strings it determines only finitely many ternary digits and reports
exactly how many. Every codeword ends in 1 or is 00, so every run of zeros
starts a codeword; pairing zeros from the left, as ``str.replace`` does, parses.

Valuations and distances ``base**-v`` are the int v in ``0..precision``; a
truncation certifies no more, so v == precision means only v >= precision.

``rigidity_witness`` records the incompatibility of repeated doubling on the
two sides of the glue: doubling contracts binary residues one valuation step
per iteration, while the glued ternary images stay at a constant scale. This
is the finite obstruction to a translation-pair symmetry of the glued system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class IncompatibleOperands(ValueError):
    """Arithmetic attempted across different bases or precisions."""


class GluePrecisionError(ValueError):
    """Too few binary digits to determine the requested ternary data."""


_DIGIT_CHARS = "0123456789"
_INT_CHUNK = 640  # sys.int_info.str_digits_check_threshold, the lowest int() limit


def int_to_digits(value: int, base: int, length: int) -> str:
    """Residue as a digit string, least significant digit first."""
    if not 2 <= base <= len(_DIGIT_CHARS):
        raise ValueError(f"digit strings support bases 2..10, got {base}")
    if length < 0:
        raise ValueError(f"digit string length must be >= 0, got {length}")
    if base == 2:  # a sentinel bit above the residue keeps the leading zeros
        top = 1 << length
        return format(value & (top - 1) | top, "b")[:0:-1]
    out = []
    v = value
    for _ in range(length):
        v, r = divmod(v, base)
        out.append(_DIGIT_CHARS[r])
    return "".join(out)


def digits_to_int(digits: str, base: int) -> int:
    if not 2 <= base <= len(_DIGIT_CHARS):
        raise ValueError(f"digit strings support bases 2..10, got {base}")
    bad = digits.strip(_DIGIT_CHARS[:base])  # ends at the last bad character
    if bad:
        raise ValueError(f"digit {bad[-1]!r} out of range for base {base}")
    # int() refuses long strings in bases that are not powers of two, so
    # convert most significant chunks first, each below every possible limit
    msd_first = digits[::-1] or "0"
    value = int(msd_first[:_INT_CHUNK], base)
    for i in range(_INT_CHUNK, len(msd_first), _INT_CHUNK):
        chunk = msd_first[i : i + _INT_CHUNK]
        value = value * base ** len(chunk) + int(chunk, base)
    return value


@dataclass(frozen=True)
class TruncatedPadic:
    """A p-adic integer known to ``precision`` digits in the given base.

    ``modulus`` is ``base**precision``, computed and checked once at construction;
    arithmetic results copy it, ``base`` and ``precision`` from their operand.
    """

    base: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        modulus = self.base**self.precision
        if not 0 <= self.residue < modulus:
            raise ValueError(
                f"residue {self.residue} outside [0, {self.base}^{self.precision})"
            )
        object.__setattr__(self, "modulus", modulus)  # computed once; not a field

    def digits(self) -> str:
        return int_to_digits(self.residue, self.base, self.precision)


def _check_compatible(x: TruncatedPadic, y: TruncatedPadic) -> None:
    if x.base != y.base or x.precision != y.precision:
        raise IncompatibleOperands(
            f"cannot combine base {x.base} precision {x.precision} "
            f"with base {y.base} precision {y.precision}"
        )


def _derived(x: TruncatedPadic, residue: int) -> TruncatedPadic:
    """``residue``, already reduced mod ``x.modulus``, at the checked base and precision of x."""
    value = object.__new__(TruncatedPadic)
    value.__dict__.update(base=x.base, precision=x.precision, residue=residue, modulus=x.modulus)
    return value


def padic_add(x: TruncatedPadic, y: TruncatedPadic) -> TruncatedPadic:
    _check_compatible(x, y)
    return _derived(x, (x.residue + y.residue) % x.modulus)


def padic_neg(x: TruncatedPadic) -> TruncatedPadic:
    return _derived(x, (-x.residue) % x.modulus)


def padic_sub(x: TruncatedPadic, y: TruncatedPadic) -> TruncatedPadic:
    _check_compatible(x, y)
    return _derived(x, (x.residue - y.residue) % x.modulus)


def padic_scale(n: int, x: TruncatedPadic) -> TruncatedPadic:
    """Integer multiple ``n * x`` at fixed precision; ``n`` may be negative."""
    return _derived(x, (n * x.residue) % x.modulus)


def padic_valuation(x: TruncatedPadic) -> int:
    """Largest v with ``base**v`` dividing the residue; ``precision`` for zero."""
    if x.residue == 0:
        return x.precision
    if x.base == 2:  # the lowest set bit
        return (x.residue & -x.residue).bit_length() - 1
    v = 0
    r = x.residue
    while r % x.base == 0:
        r //= x.base
        v += 1
    return v


def padic_distance(x: TruncatedPadic, y: TruncatedPadic) -> int:
    """The exponent v of the distance ``base**-v``: the valuation of x - y."""
    return padic_valuation(padic_sub(x, y))


def padic_project(x: TruncatedPadic, precision: int) -> TruncatedPadic:
    """Forget digits beyond ``precision``; the bonding map of the quotient tower."""
    if not 1 <= precision <= x.precision:
        raise ValueError(
            f"target precision {precision} outside [1, {x.precision}]"
        )
    return TruncatedPadic(x.base, precision, x.residue % x.base**precision)


@dataclass(frozen=True)
class PrefixCodeHomeo:
    """The glue: the binary code {0: 00, 1: 01, 2: 1} for ternary digits.

    ``code[d]`` is the binary codeword emitted for ternary digit ``d``. It is
    the smallest complete code between ternary and binary digit streams;
    completeness (Kraft sum exactly 1) plus prefix-freeness make decoding a
    genuine homeomorphism of digit streams. ``encode`` is one ``str.translate``
    table; ``decode`` reads the marks ``glue_forward`` puts on codewords.
    """

    code = ("00", "01", "1")
    encode = str.maketrans({str(d): word for d, word in enumerate(code)})
    decode = str.maketrans("ab1", "012")  # a = 00, b = 01


def default_glue() -> PrefixCodeHomeo:
    return PrefixCodeHomeo()


class GlueResult(NamedTuple):
    """Outcome of a partial decode: full digits determined, tail discarded."""

    digits: str
    leftover: str


def glue_forward(glue: PrefixCodeHomeo, binary: str) -> GlueResult:
    """Decode a binary digit string into ternary digits.

    Only whole codewords produce digits; a trailing partial codeword, and
    everything from the first non-binary character, is reported as leftover.
    The count of decoded digits is the achieved precision on the ternary side.
    """
    tail = binary.lstrip("01")  # everything from the first non-binary character
    if tail:
        binary = binary[: len(binary) - len(tail)]
    marked = binary.replace("00", "a").replace("01", "b")
    # tuple.__new__ builds the named tuple in C, skipping its Python-level __new__
    if marked.endswith("0"):  # half a codeword
        return tuple.__new__(GlueResult, (marked[:-1].translate(glue.decode), "0" + tail))
    return tuple.__new__(GlueResult, (marked.translate(glue.decode), tail))


def glue_backward(glue: PrefixCodeHomeo, digits: str) -> str:
    """Concatenate codewords; exact inverse of ``glue_forward`` on full inputs."""
    bad = digits.strip("012")  # starts at the first non-ternary character
    if bad:
        raise ValueError(f"digit {bad[0]!r} out of range for base 3")
    return digits.translate(glue.encode)


def glue_value(x: TruncatedPadic) -> TruncatedPadic:
    """Image of a binary truncation on the ternary side, at achieved precision."""
    if x.base != 2:
        raise ValueError("glue consumes base-2 truncations")
    res = glue_forward(default_glue(), x.digits())
    if not res.digits:
        raise GluePrecisionError(f"{x.precision} binary digits determine no base-3 digit")
    return TruncatedPadic(3, len(res.digits), digits_to_int(res.digits, 3))


def normalized_glue(x: TruncatedPadic) -> TruncatedPadic:
    """The offset-free glue image: image of x minus image of 0, ternary side."""
    fx = glue_value(x)
    f0 = glue_value(TruncatedPadic(2, x.precision, 0))
    m = min(fx.precision, f0.precision)
    return padic_sub(padic_project(fx, m), padic_project(f0, m))


@dataclass(frozen=True)
class RigidityReport:
    """Doubling orbits of ``a`` on both sides of the glue.

    ``u_valuations[i]`` is the binary valuation of ``2^i * a``: it must climb
    by one per step until it saturates at the precision (the orbit contracts
    to 0). ``w_distances[i]`` is the distance exponent between consecutive
    glued multiples ``2^i * nglue(a)``: doubling is an isometry on the ternary
    side, so each equals ``step_valuation``, the valuation of the nonzero
    ``nglue(a)``, and the orbit never contracts. ``diverges`` is true exactly
    when both patterns were observed.
    """

    u_valuations: tuple[int, ...]
    w_distances: tuple[int, ...]
    step_valuation: int
    valuations_march: bool
    distances_constant: bool

    @property
    def diverges(self) -> bool:
        return self.valuations_march and self.distances_constant


def _valuations_march(vals: tuple[int, ...], precision: int) -> bool:
    """Each valuation is one more than the last until it saturates at ``precision``."""
    return all(cur == min(v + 1, precision) for v, cur in zip(vals, vals[1:]))


def rigidity_witness(a: TruncatedPadic, iterations: int) -> RigidityReport:
    """Contrast the doubling orbit of ``a`` with its glued ternary shadow.

    Requires a nonzero ``a`` whose normalized glue image has at least one
    certified nonzero ternary digit; otherwise the truncation is too coarse
    and a :class:`GluePrecisionError` names the binary digits required.
    """
    if a.base != 2:
        raise ValueError("rigidity witness starts from a base-2 truncation")
    if a.residue == 0:
        raise ValueError("a = 0 is the excluded case: its glued offset is 0")
    if iterations < 2:
        raise ValueError("need at least two iterations to compare")
    fbar = normalized_glue(a)
    if fbar.residue == 0:
        raise GluePrecisionError(
            f"normalized glue image vanishes at ternary precision {fbar.precision}; "
            f"supply at least {2 * (fbar.precision + 1)} binary digits"
        )
    step = padic_valuation(fbar)

    u_vals = tuple(padic_valuation(padic_scale(2**i, a)) for i in range(iterations))
    ws = [fbar] + [padic_scale(2**i, fbar) for i in range(1, iterations)]
    w_dists = tuple(padic_distance(w, w_next) for w, w_next in zip(ws, ws[1:]))
    march = _valuations_march(u_vals, a.precision)
    constant = all(d == step for d in w_dists)
    return RigidityReport(
        u_valuations=u_vals,
        w_distances=w_dists,
        step_valuation=step,
        valuations_march=march,
        distances_constant=constant,
    )
