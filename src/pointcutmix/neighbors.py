"""k-nearest-neighbor queries over a point cloud.

A float64 linear scan of core.squared_distances() over the cloud: a query
returns the center point first, then the other points ordered by (squared
distance, original index) ascending, so equal distances go to the lower index.
"""

from __future__ import annotations

import numpy as np

from .core import PointCloud, squared_distances


class SpatialIndex:
    """Immutable after construction; concurrent queries are safe."""

    def __init__(self, cloud: PointCloud):
        self._columns = np.ascontiguousarray(cloud.points.T, dtype=np.float64)

    def __len__(self) -> int:
        return self._columns.shape[1]

    def knn(self, center_index: int, k: int) -> np.ndarray:
        """Indices of the k points nearest to points[center_index].

        Element 0 is always center_index itself; the remaining k-1 are
        ordered by (squared distance, original index) ascending.
        """
        n = len(self)
        if not 0 <= center_index < n:
            raise IndexError(f"center index {center_index} out of range for {n} points")
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        d2 = squared_distances(self._columns[:, center_index], self._columns, np.empty(n), np.empty(n))
        others = np.delete(np.arange(n, dtype=np.int64), center_index)
        ranked = others[np.lexsort((others, d2[others]))]
        return np.concatenate(([center_index], ranked[: k - 1]))


def build_index(cloud: PointCloud) -> SpatialIndex:
    return SpatialIndex(cloud)
