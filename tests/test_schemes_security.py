"""Security table tests (paper Sec. 3.4)."""

import pytest

from repro.errors import ParameterError
from repro.schemes.security import max_log_qp


class TestSecurityTable:
    def test_he_standard_values(self):
        assert max_log_qp(65536, 128) == 1772
        assert max_log_qp(32768, 128) == 881
        assert max_log_qp(1024, 128) == 27

    def test_paper_parameters_fit(self):
        """The paper's 1596-bit budget at N=2^16 meets 128-bit security."""
        assert 1596 <= max_log_qp(65536, 128) < 1800

    def test_80_bit_allows_more(self):
        assert max_log_qp(65536, 80) > max_log_qp(65536, 128)

    def test_doubling_n_roughly_doubles_budget(self):
        for n in (2048, 4096, 8192, 16384):
            ratio = max_log_qp(2 * n, 128) / max_log_qp(n, 128)
            assert 1.8 < ratio < 2.3

    def test_required_degree(self):
        """1596 bits need N = 2^16; 100 bits fit N = 4096."""
        assert max_log_qp(32768) < 1596 <= max_log_qp(65536)
        assert max_log_qp(2048) < 100 <= max_log_qp(4096)

    def test_unknown_levels_rejected(self):
        with pytest.raises(ParameterError):
            max_log_qp(65536, 256)
        with pytest.raises(ParameterError):
            max_log_qp(1000, 128)
