"""Blocked Jacobian assembly: bit-parity with the one-shot reference.

The blocked kernel performs the same floating-point operations as the
historical full-broadcast expression, row block by row block, so these
tests assert exact array equality, not tolerances.
"""

import numpy as np
import pytest

from repro.core import solver as sb
from repro.core.solver import nested_jacobian, nested_jacobian_reference
from repro.kirchhoff import forward


def _field(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(np.log(8.0), 0.35, (n, n)))


class TestBlockedJacobianParity:
    """The blocked kernel must be bit-identical to the historical one."""

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_blocked_matches_reference_exactly(self, n):
        r = _field(n, seed=n)
        assert np.array_equal(nested_jacobian(r), nested_jacobian_reference(r))

    def test_blocked_matches_when_blocks_split_rows(self, monkeypatch):
        # Shrink the block target so even n=6 assembles in many blocks.
        monkeypatch.setattr(sb, "JACOBIAN_BLOCK_TARGET_BYTES", 8 * 6 * 6 * 6)
        r = _field(6, seed=3)
        assert sb.jacobian_row_block(6, 6) == 1
        assert np.array_equal(nested_jacobian(r), nested_jacobian_reference(r))

    def test_fused_row_scaling_matches_two_pass(self):
        r = _field(5, seed=9)
        z = forward.measure(r)
        pinv = forward.laplacian_pinv_cached(r)
        fused = sb.transfer_jacobian(pinv, r, z=z)
        two_pass = nested_jacobian_reference(r) / z.ravel()[:, None]
        assert np.array_equal(fused, two_pass)

    def test_row_block_bounds(self):
        assert sb.jacobian_row_block(100, 100) >= 1
        # One block must stay under the documented byte target unless
        # even a single row exceeds it.
        block = sb.jacobian_row_block(60, 60)
        assert block * 8 * 60 * 60 * 60 <= sb.JACOBIAN_BLOCK_TARGET_BYTES
        # Tiny devices take the whole matrix in one block.
        assert sb.jacobian_row_block(4, 4) == 4
