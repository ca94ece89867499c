"""Box-plot statistics for repeated-iteration experiments (Fig. 9a)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus mean, as a box plot would draw."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    n: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def box_stats(samples: list[float] | np.ndarray) -> BoxStats:
    """Compute box statistics; requires at least one sample."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("box_stats needs at least one sample")
    q1, median, q3 = np.percentile(data, [25, 50, 75])
    minimum = float(data.min())
    maximum = float(data.max())
    # Pairwise summation can land the mean a few ULPs outside [min, max]
    # (e.g. three identical samples); clamp so min <= mean <= max holds.
    mean = min(max(float(data.mean()), minimum), maximum)
    return BoxStats(
        minimum=minimum,
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=maximum,
        mean=mean,
        n=int(data.size),
    )
