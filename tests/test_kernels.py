"""Contract tests for the in-place NumPy kernel operations."""

import numpy as np
import pytest

from lcengine import ShapeError, kernels

from oracles import oracle_convolve_rows_into


class TestContracts:
    def test_add_scaled(self):
        acc = np.ones((2, 2))
        kernels.add_scaled(acc, 2.0, np.full((2, 2), 3.0))
        assert np.all(acc == 7.0)

    def test_add_product(self):
        acc = np.zeros((1, 3))
        kernels.add_product(acc, np.array([[1.0, 2.0, 3.0]]), np.array([[4.0, 5.0, 6.0]]))
        assert acc.tolist() == [[4.0, 10.0, 18.0]]

    def test_convolve_accumulates(self):
        out = np.zeros((1, 3))
        kernels.convolve_rows_into(out, np.array([[1.0, 1.0]]), np.array([1.0, 0.5]))
        assert out.tolist() == [[1.0, 1.5, 0.5]]
        kernels.convolve_rows_into(out, np.array([[1.0, 1.0]]), np.array([1.0, 0.5]))
        assert out.tolist() == [[2.0, 3.0, 1.0]]

    def test_readonly_inputs_accepted(self):
        acc = np.zeros((2, 2))
        x = np.ones((2, 2))
        x.flags.writeable = False
        kernels.add_scaled(acc, 2.0, x)
        assert np.all(acc == 2.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            kernels.add_product(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            kernels.add_scaled(np.zeros((2, 2)), 1.0, np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            kernels.convolve_rows_into(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))
        with pytest.raises(ShapeError):
            kernels.add_scaled(np.zeros((2, 2), dtype=np.float32), 1.0, np.zeros((2, 2)))

    def test_row_slices_are_valid_targets(self):
        acc = np.zeros((6, 4))
        kernels.add_scaled(acc[2:5], 1.0, np.ones((3, 4)))
        assert np.all(acc[2:5] == 1.0) and np.all(acc[:2] == 0.0) and np.all(acc[5:] == 0.0)

    def test_broadcast_and_strided_operands_accepted(self):
        per_period = np.broadcast_to(np.array([1.0, 2.0, 3.0]), (2, 3))  # row stride 0
        per_run = np.broadcast_to(np.array([[10.0], [20.0]]), (2, 3))    # column stride 0
        wide = np.zeros((2, 5))
        acc = wide[:, 1:4]  # a non-contiguous target
        kernels.add_product(acc, per_period, per_run)
        kernels.add_scaled(acc, 0.5, per_run)
        assert wide.tolist() == [[0.0, 15.0, 25.0, 35.0, 0.0], [0.0, 30.0, 50.0, 70.0, 0.0]]
        out = np.zeros((2, 4))
        kernels.convolve_rows_into(out, per_run, np.array([1.0, 0.5]))
        assert out.tolist() == [[10.0, 15.0, 15.0, 5.0], [20.0, 30.0, 30.0, 10.0]]


class TestBlockedConvolution:
    """Row blocks worked time-major give the bits of the whole-grid tap loop."""

    @staticmethod
    def _inputs(rng, n_s, n_t, n_k, em_kind):
        if em_kind == "grid":
            em = rng.uniform(-1.0, 3.0, size=(n_s, n_t))
        elif em_kind == "draw_column":
            em = np.broadcast_to(rng.uniform(size=(n_s, 1)), (n_s, n_t))
        else:  # a per-period row
            em = np.broadcast_to(rng.uniform(size=n_t), (n_s, n_t))
        kern = rng.uniform(-0.5, 1.5, size=n_k)
        out = rng.uniform(-2.0, 2.0, size=(n_s, n_t + n_k - 1))  # not zeroed
        return out, em, kern

    @pytest.mark.parametrize("block_rows", [1, 3, 7, None])
    @pytest.mark.parametrize("n_s, n_t, n_k", [(10, 12, 5), (23, 3, 8), (1, 1, 1), (40, 9, 40)])
    @pytest.mark.parametrize("em_kind", ["grid", "draw_column", "per_period"])
    def test_matches_the_tap_loop(self, monkeypatch, block_rows, n_s, n_t, n_k, em_kind):
        if block_rows is not None:  # row counts that are not a multiple of the block
            monkeypatch.setattr(kernels, "_CACHE_BLOCK_BYTES",
                                block_rows * (n_t + n_k - 1) * 8)
        out, em, kern = self._inputs(np.random.default_rng([n_s, n_t, n_k]), n_s, n_t, n_k,
                                     em_kind)
        expected = out.copy()
        oracle_convolve_rows_into(expected, em, kern)
        kernels.convolve_rows_into(out, em, kern)
        assert out.tobytes() == expected.tobytes()

    def test_writes_through_a_strided_out(self):
        rng = np.random.default_rng(4)
        wide = rng.uniform(size=(9, 20))
        out, em, kern = wide[:, 2:16], rng.uniform(size=(9, 8)), rng.uniform(size=7)
        expected = wide.copy()
        oracle_convolve_rows_into(expected[:, 2:16], em, kern)
        kernels.convolve_rows_into(out, em, kern)
        assert wide.tobytes() == expected.tobytes()
