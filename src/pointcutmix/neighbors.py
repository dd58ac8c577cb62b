"""k-nearest-neighbor queries over a point cloud.

A float64 linear scan over the cloud's points: a query returns the center
point first, then the other points ordered by (squared distance, original
index) ascending, so equal distances resolve to the lower index.
"""

from __future__ import annotations

import numpy as np

from .core import PointCloud


class SpatialIndex:
    """Immutable after construction; concurrent queries are safe."""

    def __init__(self, cloud: PointCloud):
        self._points = cloud.points.astype(np.float64)

    def __len__(self) -> int:
        return len(self._points)

    def knn(self, center_index: int, k: int) -> np.ndarray:
        """Indices of the k points nearest to points[center_index].

        Element 0 is always center_index itself; the remaining k-1 are
        ordered by (squared distance, original index) ascending.
        """
        n = len(self._points)
        if not 0 <= center_index < n:
            raise IndexError(f"center index {center_index} out of range for {n} points")
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        diff = self._points - self._points[center_index]
        d2 = (diff * diff).sum(axis=1)
        others = np.delete(np.arange(n, dtype=np.int64), center_index)
        ranked = others[np.lexsort((others, d2[others]))]
        return np.concatenate(([center_index], ranked[: k - 1]))


def build_index(cloud: PointCloud) -> SpatialIndex:
    return SpatialIndex(cloud)
