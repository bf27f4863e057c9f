"""Tests for repro.formats.mode_encoding (paper Table I)."""

import pytest

from repro.formats.mode_encoding import OperationKind, mode_roles


class TestOperationKind:
    def test_coerce_from_string(self):
        assert OperationKind.coerce("spttm") is OperationKind.SPTTM
        assert OperationKind.coerce("SpMTTKRP") is OperationKind.SPMTTKRP

    def test_coerce_passthrough(self):
        assert OperationKind.coerce(OperationKind.SPTTMC) is OperationKind.SPTTMC

    def test_coerce_invalid(self):
        with pytest.raises(ValueError, match="unknown operation"):
            OperationKind.coerce("spmv")


class TestModeRolesTable1:
    """The exact classifications of the paper's Table I (0-based modes)."""

    def test_spttm_mode3(self):
        roles = mode_roles(OperationKind.SPTTM, 2, 3)
        assert roles.product_modes == (2,)
        assert roles.index_modes == (0, 1)

    def test_spmttkrp_mode1(self):
        roles = mode_roles(OperationKind.SPMTTKRP, 0, 3)
        assert roles.product_modes == (1, 2)
        assert roles.index_modes == (0,)

    def test_spttmc_mode1(self):
        roles = mode_roles(OperationKind.SPTTMC, 0, 3)
        assert roles.product_modes == (1, 2)
        assert roles.index_modes == (0,)

    def test_spttm_every_mode_partitions_modes(self):
        for order in (2, 3, 4, 5):
            for mode in range(order):
                roles = mode_roles("spttm", mode, order)
                assert set(roles.product_modes) | set(roles.index_modes) == set(range(order))
                assert set(roles.product_modes) & set(roles.index_modes) == set()

    def test_spmttkrp_every_mode_partitions_modes(self):
        for order in (3, 4):
            for mode in range(order):
                roles = mode_roles("spmttkrp", mode, order)
                assert roles.index_modes == (mode,)
                assert len(roles.product_modes) == order - 1

    def test_negative_mode(self):
        roles = mode_roles("spttm", -1, 3)
        assert roles.mode == 2

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            mode_roles("spttm", 0, 1)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            mode_roles("spttm", 4, 3)

    def test_frozen(self):
        roles = mode_roles("spttm", 0, 3)
        with pytest.raises(AttributeError):
            roles.mode = 1
