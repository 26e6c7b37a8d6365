"""Units: exact integer conversions the whole simulator relies on."""

import pytest

from repro import units


class TestTimeConversions:
    def test_constants_ratios(self):
        assert units.NS == 1000 * units.PS
        assert units.US == 1000 * units.NS
        assert units.MS == 1000 * units.US
        assert units.SEC == 1000 * units.MS

    def test_us_round_trip(self):
        assert units.to_us(units.us(12.5)) == pytest.approx(12.5)

    def test_ms(self):
        assert units.ms(2) == 2 * units.MS
        assert isinstance(units.ms(0.0015), int)


class TestSerialization:
    def test_mtu_at_100g_exact(self):
        # 1538 bytes * 8 bits * 1000 / 100 == 123040 ps, exactly.
        assert units.serialization_ps(1538, 100.0) == 123040

    def test_scales_inverse_with_rate(self):
        t100 = units.serialization_ps(1518, 100.0)
        t200 = units.serialization_ps(1518, 200.0)
        t400 = units.serialization_ps(1518, 400.0)
        assert t100 == 2 * t200 == 4 * t400

    def test_zero_bytes(self):
        assert units.serialization_ps(0, 100.0) == 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            units.serialization_ps(100, 0)
        with pytest.raises(ValueError):
            units.serialization_ps(100, -1)

    def test_linear_in_bytes(self):
        assert units.serialization_ps(3000, 100.0) == 2 * units.serialization_ps(
            1500, 100.0
        )

