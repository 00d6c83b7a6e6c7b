"""Shared image-comparison helpers for the test suite."""

from __future__ import annotations

import numpy as np

__all__ = ["assert_images_close", "assert_images_identical"]


def assert_images_close(actual: np.ndarray, expected: np.ndarray,
                        tolerance: float = 1e-4) -> None:
    """Assert two images match within a tolerance, with a helpful message."""
    assert actual.shape == expected.shape, (
        f"shape mismatch: {actual.shape} vs {expected.shape}"
    )
    difference = np.abs(np.asarray(actual, dtype=np.float64)
                        - np.asarray(expected, dtype=np.float64))
    assert difference.max() <= tolerance, (
        f"max difference {difference.max()} exceeds tolerance {tolerance}"
    )


def assert_images_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    """Assert two images are bit-identical, dtype included (backend parity)."""
    assert actual.dtype == expected.dtype, (
        f"dtype mismatch: {actual.dtype} vs {expected.dtype}"
    )
    assert actual.shape == expected.shape, (
        f"shape mismatch: {actual.shape} vs {expected.shape}"
    )
    if not np.array_equal(actual, expected):
        difference = np.abs(np.asarray(actual, dtype=np.float64)
                            - np.asarray(expected, dtype=np.float64))
        mismatched = int((difference > 0).sum())
        assert False, (
            f"images differ at {mismatched} of {difference.size} pixels "
            f"(max difference {difference.max()})"
        )
