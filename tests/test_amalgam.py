"""Glued 2-3 solenoid: step semantics, precision accounting, rigidity search."""

import pytest

from liftlab.amalgam import (
    AmalgamModel,
    b_step,
    centralizer_deck_search,
    translation_deck_search,
)
from liftlab.profinite import (
    default_glue,
    digits_to_int,
    glue_backward,
    glue_forward,
    int_to_digits,
)


class TestSteps:
    def test_b_step_matches_manual_decode(self):
        digits = "110010"
        decoded = glue_forward(default_glue(), digits)
        value = (digits_to_int(decoded.digits, 3) + 1) % 3 ** len(decoded.digits)
        step = b_step(digits)
        back = glue_forward(default_glue(), step)
        assert len(back.digits) == len(decoded.digits)
        assert digits_to_int(back.digits, 3) == value

    def test_output_codewords_are_the_ternary_precision(self):
        """Every codeword of the output is one certified ternary digit.

        Decoding the output leaves nothing over and yields as many ternary
        digits as decoding the input did; re-encoding them gives the output
        back, so its length is exactly their binary precision.
        """
        glue = default_glue()
        for m2 in range(2, 9):
            for x in range(2**m2):
                digits = int_to_digits(x, 2, m2)
                m3 = len(glue_forward(glue, digits).digits)
                if m3 == 0:
                    continue
                out = b_step(digits)
                decoded = glue_forward(glue, out)
                assert decoded.leftover == "" and len(decoded.digits) == m3
                assert glue_backward(glue, decoded.digits) == out

    def test_b_inverse_undoes_b_at_certified_precision(self):
        def b_inverse(digits):
            # the glued ternary -1, decoded and re-encoded as b_step does +1
            decoded = glue_forward(default_glue(), digits).digits
            m3 = len(decoded)
            value = (digits_to_int(decoded, 3) - 1) % 3**m3
            return glue_backward(default_glue(), int_to_digits(value, 3, m3))

        for x in range(0, 256, 7):
            digits = int_to_digits(x, 2, 8)
            forward = b_step(digits)
            back = b_inverse(forward)
            p = min(len(digits), len(back))
            assert digits[:p] == back[:p]

    @pytest.mark.parametrize("digits", ["01x1", "2", "0110 "])
    def test_non_binary_digits_rejected(self, digits):
        # the glue would decode the binary head and drop the rest
        with pytest.raises(ValueError, match="out of range for base 2"):
            b_step(digits)

    def test_precision_never_silently_lost(self):
        # pure b-words: ternary precision stays >= floor(m2/2) - j
        for start in ("0110010110", "1111111111", "0000000001"):
            digits = start
            for j in range(1, 6):
                digits = b_step(digits)
                assert len(glue_forward(default_glue(), digits).digits) >= 10 // 2 - j


class TestDeckSearch:
    def test_identity_survives_everywhere(self):
        for m in (3, 4, 5, 6):
            pairs = translation_deck_search(AmalgamModel(m))
            assert any(p.binary_offset == 0 and p.ternary_offset == 0 for p in pairs)

    def test_only_identity_at_coarse_precision(self):
        pairs = translation_deck_search(AmalgamModel(6))
        assert [(p.binary_offset, p.ternary_offset) for p in pairs] == [(0, 0)]

    def test_only_identity_at_precision_eight(self):
        pairs = translation_deck_search(AmalgamModel(8))
        assert [(p.binary_offset, p.ternary_offset) for p in pairs] == [(0, 0)]

    def test_centralizer_route_agrees(self):
        model = AmalgamModel(4)
        translations = translation_deck_search(model)
        centralizer = centralizer_deck_search(model)
        assert [p.binary_offset for p in translations] == centralizer == [0]

    def test_centralizer_bound(self):
        with pytest.raises(ValueError):
            centralizer_deck_search(AmalgamModel(6))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_per_shift_common_precision(self, m):
        # the search as first written: the common precision taken per shift s
        # as min over x of min(p[x], p[x + s]); the module takes min(p) once
        model = AmalgamModel(m)
        size = 2**m
        decoded = []
        for x in range(size):
            res = glue_forward(default_glue(), int_to_digits(x, 2, m))
            decoded.append((digits_to_int(res.digits, 3), len(res.digits)))
        expected = []
        for s in range(size):
            common = min(
                min(decoded[x][1], decoded[(x + s) % size][1]) for x in range(size)
            )
            offsets = {
                (decoded[(x + s) % size][0] - decoded[x][0]) % 3**common
                for x in range(size)
            }
            if len(offsets) == 1:
                expected.append((s, offsets.pop(), common))
        survivors = translation_deck_search(model)
        assert [
            (p.binary_offset, p.ternary_offset, p.ternary_precision) for p in survivors
        ] == expected
