"""Contract tests for the in-place NumPy kernel operations."""

import numpy as np
import pytest

from lcengine import ShapeError, kernels


class TestContracts:
    def test_add_const(self):
        acc = np.zeros((2, 2))
        kernels.add_const(acc, 1.5)
        kernels.add_const(acc, 2.0)
        assert np.all(acc == 3.5)

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
            kernels.add_const(np.zeros((2, 2), dtype=np.float32), 1.0)

    def test_row_slices_are_valid_targets(self):
        acc = np.zeros((6, 4))
        kernels.add_const(acc[2:5], 1.0)
        assert np.all(acc[2:5] == 1.0) and np.all(acc[:2] == 0.0) and np.all(acc[5:] == 0.0)

    def test_broadcast_and_strided_operands_accepted(self):
        per_period = np.broadcast_to(np.array([1.0, 2.0, 3.0]), (2, 3))  # row stride 0
        per_run = np.broadcast_to(np.array([[10.0], [20.0]]), (2, 3))    # column stride 0
        wide = np.zeros((2, 5))
        acc = wide[:, 1:4]  # a non-contiguous target
        kernels.add_product(acc, per_period, per_run)
        kernels.add_scaled(acc, 0.5, per_run)
        kernels.add_const(acc, 1.0)
        assert wide.tolist() == [[0.0, 16.0, 26.0, 36.0, 0.0], [0.0, 31.0, 51.0, 71.0, 0.0]]
        out = np.zeros((2, 4))
        kernels.convolve_rows_into(out, per_run, np.array([1.0, 0.5]))
        assert out.tolist() == [[10.0, 15.0, 15.0, 5.0], [20.0, 30.0, 30.0, 10.0]]
