"""Tests for the name-based code registry."""

from __future__ import annotations

import pytest

from repro.coding import registry
from repro.coding.galois import get_field
from repro.coding.registry import available_codes, get_code, paper_code_set, register_code
from repro.exceptions import ConfigurationError


class TestRegisteredNames:
    def test_paper_names_are_registered(self):
        names = available_codes()
        assert "h(7,4)" in names
        assert "h(71,64)" in names
        assert "w/oecc" in names

    def test_get_h74(self):
        code = get_code("H(7,4)")
        assert (code.n, code.k) == (7, 4)

    def test_get_h7164(self):
        code = get_code("H(71,64)")
        assert (code.n, code.k) == (71, 64)

    def test_get_uncoded(self):
        code = get_code("w/o ECC")
        assert code.code_rate == 1.0

    def test_names_are_whitespace_and_case_insensitive(self):
        assert get_code("h( 7 , 4 )").name == "H(7,4)"
        assert get_code("UNCODED").code_rate == 1.0


class TestPatternConstruction:
    def test_full_hamming_from_pattern(self):
        code = get_code("H(15,11)")
        assert (code.n, code.k) == (15, 11)

    def test_shortened_hamming_from_pattern(self):
        code = get_code("H(38,32)")
        assert (code.n, code.k) == (38, 32)

    def test_invalid_hamming_pattern_raises(self):
        with pytest.raises(ConfigurationError):
            get_code("H(70,64)")

    def test_secded_pattern(self):
        code = get_code("SECDED(32)")
        assert code.k == 32
        assert "dmin=4" in repr(code)

    def test_bch_pattern(self):
        code = get_code("BCH(4,2)")
        assert (code.n, code.k) == (15, 7)

    def test_repetition_pattern(self):
        code = get_code("REP(5)")
        assert (code.n, code.k) == (5, 1)

    def test_parity_pattern(self):
        code = get_code("SPC(8)")
        assert (code.n, code.k) == (9, 8)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_code("turbo-code")


class TestRegistration:
    @pytest.fixture(autouse=True)
    def scratch_registry(self, monkeypatch):
        """Registrations made by a test vanish with it."""
        monkeypatch.setattr(registry, "_FACTORIES", dict(registry._FACTORIES))
        registry._cached_lookup.cache_clear()
        yield
        registry._cached_lookup.cache_clear()

    def test_register_and_retrieve_custom_code(self):
        from repro.coding.hamming import HammingCode

        register_code("my-test-code", lambda: HammingCode(5))
        assert get_code("my-test-code").n == 31

    def test_duplicate_registration_raises(self):
        from repro.coding.hamming import HammingCode

        register_code("dup-code", lambda: HammingCode(3))
        with pytest.raises(ConfigurationError):
            register_code("dup-code", lambda: HammingCode(3))

    def test_code_without_the_packed_contract_is_rejected(self):
        from repro.coding.hamming import HammingCode

        inner = HammingCode(3)

        class ContractlessCode:
            """Duck-typed code with its dimensions but no coding methods."""

            n = inner.n
            k = inner.k

        class EncodeOnlyCode(ContractlessCode):
            encode_batch_packed = staticmethod(inner.encode_batch_packed)

        register_code("contractless-code", ContractlessCode)
        with pytest.raises(ConfigurationError, match="encode_batch_packed, decode_batch_packed"):
            get_code("contractless-code")
        register_code("encode-only-code", EncodeOnlyCode)
        with pytest.raises(ConfigurationError, match="missing decode_batch_packed$"):
            get_code("encode-only-code")


class TestPaperCodeSet:
    def test_order_and_names(self):
        names = [code.name for code in paper_code_set()]
        assert names == ["w/o ECC", "H(71,64)", "H(7,4)"]

    def test_respects_bus_width(self):
        codes = paper_code_set(32)
        assert codes[0].n == 32
        assert codes[1].k == 32

    def test_communication_times_match_paper(self):
        uncoded, h71, h74 = paper_code_set()
        assert uncoded.communication_time_overhead == pytest.approx(1.0)
        assert h71.communication_time_overhead == pytest.approx(1.109, abs=1e-3)
        assert h74.communication_time_overhead == pytest.approx(1.75)


class TestConstructionMemoization:
    def test_registry_lookups_share_instances(self):
        assert get_code("H(71,64)") is get_code("h(71, 64)")
        assert get_code("BCH(6,2)") is get_code("bch(6,2)")

    def test_galois_fields_are_memoized(self):
        assert get_field(6) is get_field(6)
        assert get_field(6) is not get_field(7)
