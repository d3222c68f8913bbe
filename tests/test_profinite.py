"""Truncated p-adic arithmetic against big-integer oracles, and the glue code."""

import dataclasses
import itertools
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.profinite import (
    GluePrecisionError,
    GlueResult,
    IncompatibleOperands,
    PrefixCodeHomeo,
    TruncatedPadic,
    default_glue,
    digits_to_int,
    glue_backward,
    glue_forward,
    glue_value,
    int_to_digits,
    normalized_glue,
    padic_add,
    padic_distance,
    padic_neg,
    padic_project,
    padic_scale,
    padic_sub,
    padic_valuation,
    rigidity_witness,
)


def oracle_valuation(residue: int, base: int, precision: int):
    """Independent valuation: scan exponents upward."""
    if residue == 0:
        return precision, True
    v = 0
    while v < precision and residue % base ** (v + 1) == 0:
        v += 1
    return v, False


padic_strategy = st.integers(0, 2**64 - 1)


@st.composite
def padics(draw, bases=(2, 3, 5), max_precision=64):
    base = draw(st.sampled_from(bases))
    precision = draw(st.integers(1, max_precision))
    residue = draw(st.integers(0, base**precision - 1))
    return TruncatedPadic(base, precision, residue)


@st.composite
def padic_pairs(draw):
    x = draw(padics())
    y_res = draw(st.integers(0, x.modulus - 1))
    return x, TruncatedPadic(x.base, x.precision, y_res)


class TestArithmetic:
    def test_add_examples(self):
        assert padic_add(TruncatedPadic(2, 3, 3), TruncatedPadic(2, 3, 7)).residue == 2
        assert padic_add(TruncatedPadic(2, 4, 15), TruncatedPadic(2, 4, 1)).residue == 0

    def test_add_identity(self):
        x = TruncatedPadic(5, 6, 11_111)
        zero = TruncatedPadic(5, 6, 0)
        assert padic_add(x, zero) == x

    def test_sub_neg_examples(self):
        assert padic_neg(TruncatedPadic(3, 2, 0)).residue == 0
        assert padic_sub(TruncatedPadic(3, 2, 4), TruncatedPadic(3, 2, 7)).residue == 6
        x = TruncatedPadic(2, 10, 731)
        assert padic_sub(x, x).residue == 0

    def test_scale_examples(self):
        x = TruncatedPadic(2, 5, 3)
        assert padic_scale(1, x) == x
        assert padic_scale(2, x).residue == 6
        assert padic_scale(2**3, TruncatedPadic(3, 3, 1)).residue == 8
        assert padic_scale(-1, x) == padic_neg(x)

    def test_mixing_is_an_error(self):
        with pytest.raises(IncompatibleOperands):
            padic_add(TruncatedPadic(2, 3, 1), TruncatedPadic(3, 3, 1))
        with pytest.raises(IncompatibleOperands):
            padic_sub(TruncatedPadic(2, 3, 1), TruncatedPadic(2, 4, 1))

    def test_residue_bounds_enforced(self):
        with pytest.raises(ValueError):
            TruncatedPadic(2, 3, 8)
        with pytest.raises(ValueError):
            TruncatedPadic(2, 0, 0)
        with pytest.raises(ValueError):
            TruncatedPadic(3, 2, -1)

    def test_modulus_is_stored_but_not_a_field(self):
        x = TruncatedPadic(3, 4, 5)
        assert x.modulus == 81
        assert [f.name for f in dataclasses.fields(x)] == ["base", "precision", "residue"]
        assert x == TruncatedPadic(3, 4, 5) and hash(x) == hash(TruncatedPadic(3, 4, 5))
        assert dataclasses.replace(x, precision=2, residue=8).modulus == 9

    @settings(deadline=None, max_examples=150)
    @given(padic_pairs(), st.integers(-(2**32), 2**32))
    def test_matches_bigint_oracle(self, pair, n):
        x, y = pair
        m = x.modulus
        assert padic_add(x, y).residue == (x.residue + y.residue) % m
        assert padic_sub(x, y).residue == (x.residue - y.residue) % m
        assert padic_scale(n, x).residue == (n * x.residue) % m

    @settings(deadline=None, max_examples=150)
    @given(padics(max_precision=300), st.integers(-(2**320), 2**320), st.data())
    def test_derived_values_match_constructed_ones(self, x, n, data):
        # add, neg, sub and scale skip the constructor's checks; each result
        # must be indistinguishable from a value built and checked from scratch
        y = TruncatedPadic(x.base, x.precision, data.draw(st.integers(0, x.modulus - 1)))
        for result in (padic_add(x, y), padic_neg(x), padic_sub(x, y), padic_scale(n, x)):
            built = TruncatedPadic(x.base, x.precision, result.residue)
            assert type(result) is TruncatedPadic
            assert result == built and hash(result) == hash(built)
            assert repr(result) == repr(built) and vars(result) == vars(built)
            with pytest.raises(ValueError):
                dataclasses.replace(result, residue=result.modulus)

    def test_seeded_bulk_oracle(self):
        rng = Random(20260808)
        for _ in range(2000):
            base = rng.choice((2, 3, 5))
            k = rng.randint(1, 64)
            m = base**k
            a, b = rng.randrange(m), rng.randrange(m)
            n = rng.randint(-(2**40), 2**40)
            assert padic_add(
                TruncatedPadic(base, k, a), TruncatedPadic(base, k, b)
            ).residue == (a + b) % m
            assert padic_scale(n, TruncatedPadic(base, k, a)).residue == (n * a) % m


class TestValuationDistance:
    def test_valuation_examples(self):
        # zero saturates at the precision: only v >= 4 is certified
        assert padic_valuation(TruncatedPadic(2, 4, 0)) == 4
        assert padic_valuation(TruncatedPadic(2, 4, 12)) == 2
        assert padic_valuation(TruncatedPadic(3, 3, 9)) == 2

    def test_base_two_every_valuation_to_1024(self):
        rng = Random(12)
        for v in range(1024):
            residue = (2 * rng.randrange(2 ** (1023 - v)) + 1) << v
            got = padic_valuation(TruncatedPadic(2, 1024, residue))
            assert (got, got == 1024) == oracle_valuation(residue, 2, 1024)

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(padics(), padics(bases=(2,), max_precision=1024)))
    def test_valuation_oracle(self, x):
        v = padic_valuation(x)
        digits, saturated = oracle_valuation(x.residue, x.base, x.precision)
        # the precision is reached exactly when the residue vanishes
        assert (v, v == x.precision) == (digits, saturated)

    def test_distance_examples(self):
        # exponents v of base^-v; below the precision they are exact
        assert padic_distance(TruncatedPadic(2, 4, 1), TruncatedPadic(2, 4, 5)) == 2
        assert padic_distance(TruncatedPadic(3, 3, 0), TruncatedPadic(3, 3, 2)) == 0
        x = TruncatedPadic(2, 7, 99)
        # agreement to full precision certifies only d(x, x) <= 2^-7
        assert padic_distance(x, x) == 7
        with pytest.raises(IncompatibleOperands):
            padic_distance(x, TruncatedPadic(2, 8, 99))

    @settings(deadline=None, max_examples=100)
    @given(padics(max_precision=24), st.data())
    def test_ultrametric_inequality(self, x, data):
        y = TruncatedPadic(x.base, x.precision, data.draw(st.integers(0, x.modulus - 1)))
        z = TruncatedPadic(x.base, x.precision, data.draw(st.integers(0, x.modulus - 1)))
        # d(x,z) <= max(d(x,y), d(y,z)) on exponents: v(x,z) >= min(v(x,y), v(y,z))
        vxz = padic_distance(x, z)
        assert vxz >= min(padic_distance(x, y), padic_distance(y, z))
        assert padic_distance(x, y) == padic_distance(y, x) <= x.precision


class TestProjection:
    def test_examples(self):
        x = TruncatedPadic(2, 3, 6)
        assert padic_project(x, 3) == x
        assert padic_project(x, 1).residue == 0
        assert padic_project(TruncatedPadic(3, 2, 7), 1).residue == 1

    def test_range_error(self):
        with pytest.raises(ValueError):
            padic_project(TruncatedPadic(2, 3, 1), 4)
        with pytest.raises(ValueError):
            padic_project(TruncatedPadic(2, 3, 1), 0)

    @settings(deadline=None, max_examples=150)
    @given(padic_pairs(), st.integers(-1000, 1000), st.data())
    def test_projection_is_a_ring_map(self, pair, n, data):
        x, y = pair
        k = data.draw(st.integers(1, x.precision))
        assert padic_project(padic_add(x, y), k) == padic_add(
            padic_project(x, k), padic_project(y, k)
        )
        assert padic_project(padic_scale(n, x), k) == padic_scale(
            n, padic_project(x, k)
        )


def divmod_digits(value: int, base: int, length: int) -> str:
    """Digit strings as first written: one divmod per digit."""
    out = []
    for _ in range(length):
        value, r = divmod(value, base)
        out.append("0123456789"[r])
    return "".join(out)


def horner_value(digits: str, base: int) -> int:
    """Digit values as first written: Horner's rule from the last digit."""
    value = 0
    for ch in reversed(digits):
        value = value * base + ord(ch) - ord("0")
    return value


class TestDigitStrings:
    def test_round_trip(self):
        assert int_to_digits(6, 2, 3) == "011"
        assert digits_to_int("011", 2) == 6
        for value in range(27):
            assert digits_to_int(int_to_digits(value, 3, 5), 3) == value

    def test_base_two_matches_divmod_reference(self):
        rng = Random(13)
        values = list(range(-70, 70)) + [rng.randrange(-(2**80), 2**80) for _ in range(60)]
        for length in (0, 1, 2, 5, 8, 64):
            for value in values:
                assert int_to_digits(value, 2, length) == divmod_digits(value, 2, length)
        assert int_to_digits(2**1024 + 5, 2, 1024) == divmod_digits(2**1024 + 5, 2, 1024)

    def test_digit_values_match_horner_reference(self):
        rng = Random(14)
        for base in range(2, 11):
            for length in (0, 1, 7, 639, 640, 641, 1300):
                s = "".join(rng.choice("0123456789"[:base]) for _ in range(length))
                assert digits_to_int(s, base) == horner_value(s, base)

    def test_long_ternary_string_round_trips(self):
        # a bare int(s, 3) refuses strings past 4,300 digits
        rng = Random(15)
        s = "".join(rng.choice("012") for _ in range(5000))
        assert int_to_digits(digits_to_int(s, 3), 3, 5000) == s

    @pytest.mark.parametrize(
        "digits, base, bad",
        [("+1", 10, "+"), ("1_0", 10, "_"), (" 1", 10, " "), ("٣", 10, "٣"),
         ("0120", 2, "2"), ("3013", 3, "3")],
    )
    def test_non_digit_named(self, digits, base, bad):
        # the last bad character, the one a least-significant-first scan meets first
        with pytest.raises(ValueError, match=re.escape(f"digit {bad!r} out of range for base {base}")):
            digits_to_int(digits, base)

    def test_empty_string_is_zero(self):
        assert digits_to_int("", 3) == 0
        assert int_to_digits(5, 3, 0) == ""

    @pytest.mark.parametrize("base", [2, 3])
    def test_negative_length_rejected(self, base):
        with pytest.raises(ValueError, match="length must be >= 0, got -1"):
            int_to_digits(5, base, -1)

    @pytest.mark.parametrize("base", [-2, 0, 1, 11, 16])
    def test_base_outside_two_to_ten_rejected(self, base):
        with pytest.raises(ValueError, match="bases 2..10"):
            int_to_digits(5, base, 3)
        with pytest.raises(ValueError, match="bases 2..10"):
            digits_to_int("0", base)


def greedy_decode(code: tuple[str, ...], binary: str) -> tuple[str, str]:
    """The codec as first written: try codeword lengths shortest first."""
    table = {w: i for i, w in enumerate(code)}
    lengths = sorted({len(w) for w in code})
    out = []
    pos = 0
    while pos < len(binary):
        for length in lengths:
            piece = binary[pos : pos + length]
            if len(piece) == length and piece in table:
                out.append(str(table[piece]))
                pos += length
                break
        else:
            break
    return "".join(out), binary[pos:]


class TestGlueCode:
    def test_default_table_is_complete_and_prefix_free(self):
        code = PrefixCodeHomeo.code
        assert code == ("00", "01", "1")
        assert sum(Fraction(1, 2 ** len(w)) for w in code) == 1
        for i, w in enumerate(code):
            for j, v in enumerate(code):
                assert i == j or not v.startswith(w)

    def test_forward_examples(self):
        glue = default_glue()
        empty = glue_forward(glue, "")
        assert empty.digits == "" and empty.leftover == ""
        res = glue_forward(glue, "0001")
        assert (res.digits, res.leftover) == ("01", "")
        res = glue_forward(glue, "11")
        assert (res.digits, res.leftover) == ("22", "")
        partial = glue_forward(glue, "110")
        assert partial.digits == "22" and partial.leftover == "0"

    def test_forward_matches_greedy_oracle(self):
        glue = default_glue()
        strings = ["".join(cs) for n in range(15) for cs in itertools.product("01", repeat=n)]
        # off the binary alphabet, everything from the first bad character is leftover
        strings += ["".join(cs) for n in range(10) for cs in itertools.product("01x", repeat=n)]
        strings += ["2", "0\n", "102", "0012\n1", "\n", "1\n0", "000x", "01\n\n"]
        leftovers = set()
        for s in strings:
            res = glue_forward(glue, s)
            assert type(res) is GlueResult
            assert (res.digits, res.leftover) == greedy_decode(glue.code, s), repr(s)
            leftovers.add(res.leftover)
        # half a codeword, a non-binary tail, and both at once
        assert {"0", "x", "0x"} <= leftovers

    def test_backward_examples(self):
        glue = default_glue()
        assert glue_backward(glue, "") == ""
        assert glue_backward(glue, "2") == "1"
        assert glue_backward(glue, "01") == "0001"

    @pytest.mark.parametrize("digits", ["3", "0a0", "01 "])
    def test_backward_rejects_non_ternary_characters(self, digits):
        with pytest.raises(ValueError, match="out of range for base 3"):
            glue_backward(default_glue(), digits)

    def test_round_trip_short_exhaustive(self):
        glue = default_glue()
        for length in range(1, 9):
            for digits in itertools.product("012", repeat=length):
                s = "".join(digits)
                res = glue_forward(glue, glue_backward(glue, s))
                assert res.digits == s and res.leftover == ""


class TestRigidity:
    def test_zero_is_excluded(self):
        with pytest.raises(ValueError):
            rigidity_witness(TruncatedPadic(2, 8, 0), 5)

    def test_unit_valuations_march_from_zero(self):
        report = rigidity_witness(TruncatedPadic(2, 32, 1), 10)
        assert list(report.u_valuations) == list(range(10))
        assert report.valuations_march

    def test_unit_glue_distance_is_one(self):
        # a = 1: decode("100...") starts with ternary digit 2, a unit.
        report = rigidity_witness(TruncatedPadic(2, 32, 1), 10)
        fbar = normalized_glue(TruncatedPadic(2, 32, 1))
        # distance 3^0 = 1, exact: the exponent is below the ternary precision
        assert report.step_valuation == 0 < fbar.precision
        assert all(d == 0 for d in report.w_distances)
        assert report.diverges

    def test_unit_offsets_brute_force(self):
        # ternary units stay units under doubling: v3(2x) == v3(x), checked
        # exhaustively over residues mod 3^4
        for r in range(1, 81):
            if r % 3 != 0:
                assert (2 * r) % 3 != 0

    def test_saturation_tail(self):
        # high valuation start saturates within the window and stays saturated
        a = TruncatedPadic(2, 8, 2**6)
        report = rigidity_witness(a, 6)
        digits = list(report.u_valuations)
        flags = [v == a.precision for v in report.u_valuations]
        assert digits == [6, 7, 8, 8, 8, 8]
        assert flags == [False, False, True, True, True, True]
        assert report.valuations_march

    def test_seeded_samples_all_diverge(self):
        rng = Random(99)
        for _ in range(20):
            a = TruncatedPadic(2, 64, rng.randrange(1, 2**64))
            report = rigidity_witness(a, 30)
            assert report.diverges
            assert len(set(report.w_distances)) == 1

    def test_normalized_glue_matches_definition(self):
        a = TruncatedPadic(2, 16, 12345)
        fa = glue_value(a)
        f0 = glue_value(TruncatedPadic(2, 16, 0))
        m = min(fa.precision, f0.precision)
        expected = (fa.residue - f0.residue) % 3**m
        assert normalized_glue(a).residue == expected

    def test_precision_error_names_requirement(self):
        # residue 4 at precision 3 has digits "001": its decode differs from
        # the zero decode only past the shared certified digit, so the
        # normalized image vanishes at the working ternary precision
        with pytest.raises(GluePrecisionError) as err:
            rigidity_witness(TruncatedPadic(2, 3, 4), 4)
        assert "binary digits" in str(err.value)
