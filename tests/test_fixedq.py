import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzychip.fixedq import (
    MAX_BITS,
    DomainMap,
    FixedWord,
    quantize,
    quantize_code,
    round_half_away,
)


def test_round_half_away_ties():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(1.5) == 2
    assert round_half_away(-1.5) == -2
    assert round_half_away(2.5) == 3


def test_round_half_away_plain():
    assert round_half_away(0.0) == 0
    assert round_half_away(2.4) == 2
    assert round_half_away(-2.4) == -2
    assert round_half_away(7.0) == 7


def test_fixedword_accepts_full_range():
    assert FixedWord(0, 8).value == 0
    assert FixedWord(255, 8).value == 255
    assert FixedWord((1 << MAX_BITS) - 1, MAX_BITS).bits == MAX_BITS


@pytest.mark.parametrize("value,bits", [(256, 8), (-1, 8), (1, 0), (0, 33)])
def test_fixedword_rejects(value, bits):
    with pytest.raises(ValueError):
        FixedWord(value, bits)


def test_domainmap_top_and_lsb():
    dm = DomainMap(-1.0, 1.0, 12)
    assert dm.top == 4095
    # the real-value step between adjacent codes
    assert (dm.hi - dm.lo) / dm.top == pytest.approx(2.0 / 4095)


def test_domainmap_rejects_bad_interval():
    with pytest.raises(ValueError):
        DomainMap(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        DomainMap(2.0, -2.0, 8)
    with pytest.raises(ValueError):
        DomainMap(0.0, 1.0, 0)


def test_quantize_endpoints_and_center():
    dm = DomainMap(-1.0, 1.0, 12)
    assert quantize(-1.0, dm).value == 0
    assert quantize(1.0, dm).value == 4095
    # center of a symmetric universe: 2047.5 rounds away from zero
    assert quantize(0.0, dm).value == 2048


def test_quantize_clamps_outside():
    dm = DomainMap(0.0, 10.0, 8)
    assert quantize(-3.0, dm).value == 0
    assert quantize(11.5, dm).value == 255


def test_quantize_monotone():
    rnd = random.Random(101)
    dm = DomainMap(-4.0, 3.0, 10)
    for _ in range(500):
        x = rnd.uniform(-5.0, 4.0)
        y = x + rnd.uniform(0.0, 1.0)
        assert quantize(x, dm).value <= quantize(y, dm).value


def _code_value(w: FixedWord, dm: DomainMap) -> float:
    """Real value of a code on dm's affine map: code 0 is lo, the top code hi."""
    return dm.lo + (w.value / dm.top) * (dm.hi - dm.lo)


def test_roundtrip_within_half_lsb():
    rnd = random.Random(77)
    for _ in range(500):
        lo = rnd.uniform(-10.0, 0.0)
        hi = lo + rnd.uniform(0.5, 20.0)
        dm = DomainMap(lo, hi, rnd.randint(4, 16))
        x = rnd.uniform(lo, hi)
        back = _code_value(quantize(x, dm), dm)
        assert abs(back - x) <= (dm.hi - dm.lo) / dm.top / 2 + 1e-12


def test_roundtrip_clamped_outside():
    dm = DomainMap(0.0, 1.0, 8)
    assert _code_value(quantize(5.0, dm), dm) == 1.0
    assert _code_value(quantize(-5.0, dm), dm) == 0.0


def test_fixedword_is_hashable_value_object():
    assert FixedWord(7, 8) == FixedWord(7, 8)
    assert FixedWord(7, 8) != FixedWord(7, 9)
    assert len({FixedWord(7, 8), FixedWord(7, 8)}) == 1


def test_quantize_half_lsb_boundary():
    # code boundary at exactly half an LSB rounds up (away from lo)
    dm = DomainMap(0.0, 255.0, 8)  # lsb == 1.0
    assert quantize(0.5, dm).value == 1
    assert quantize(0.49999, dm).value == 0


def test_math_consistency_with_floor_ceil():
    for x in (-3.5, -1.2, 0.0, 1.2, 3.5):
        r = round_half_away(x)
        assert isinstance(r, int)
        assert math.floor(x) <= r <= math.ceil(x)


def _quantize_word(x, dm):
    """quantize as it was before quantize_code: a validated word per call."""
    t = (x - dm.lo) / (dm.hi - dm.lo) * dm.top
    return FixedWord(min(max(round_half_away(t), 0), dm.top), dm.bits)


def _check_quantize_code(x, dm):
    code = quantize_code(x, dm)
    assert type(code) is int
    assert code == quantize(x, dm).value == _quantize_word(x, dm).value
    assert quantize(x, dm) == _quantize_word(x, dm)


def test_quantize_code_ties_zeros_and_clamps():
    for dm in (DomainMap(0.0, 255.0, 8), DomainMap(-1.0, 1.0, 1),
               DomainMap(-math.pi, math.pi, 12), DomainMap(-3.0, 5.0, MAX_BITS)):
        step = (dm.hi - dm.lo) / dm.top
        for k in range(-3, 6):
            for x in (dm.lo + (k + 0.5) * step, dm.hi - (k + 0.5) * step):
                _check_quantize_code(x, dm)
                _check_quantize_code(np.float64(x), dm)
        for x in (0.0, -0.0, dm.lo, dm.hi, dm.lo - 1e6, dm.hi + 1e6):
            _check_quantize_code(x, dm)
    assert quantize_code(0.5, DomainMap(0.0, 255.0, 8)) == 1  # ties away from lo
    assert quantize_code(-0.0, DomainMap(-1.0, 1.0, 1)) == 1


@given(x=st.floats(-1e6, 1e6), lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
       bits=st.integers(1, MAX_BITS))
def test_quantize_code_equals_word_value(x, lo, width, bits):
    dm = DomainMap(lo, lo + width, bits)
    _check_quantize_code(x, dm)
