"""Power-law fits of power-norm series."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .operators import NormSeries, _count


@dataclass(frozen=True)
class GrowthReport:
    """Least-squares exponent of a norm series over a window of k."""

    window: tuple
    exponent: float
    intercept: float
    residual_rms: float

    def to_dict(self) -> dict:
        return asdict(self)


def growth_fit(series: NormSeries, window) -> GrowthReport:
    """Ordinary least squares on (log k, log ||T^k||) over the window, two integer counts."""
    lo, hi = _count(window[0], "window start"), _count(window[1], "window end")
    if lo < 1 or hi <= lo:
        raise ValidationError("window must satisfy 1 <= lo < hi")
    mask = (series.k >= lo) & (series.k <= hi)
    if int(np.count_nonzero(mask)) < 8:
        raise ValidationError("fit window must contain at least 8 points")
    vals = series.values[mask]
    if np.any(vals <= 0):
        first = int(np.argmax(vals <= 0))
        raise ValidationError("fit window must contain positive norms only: "
                              f"k = {series.k[mask][first]} has ||T^k|| = {vals[first]:g}")
    logk = np.log(series.k[mask].astype(float))
    logv = np.log(vals)
    design = np.column_stack([logk, np.ones_like(logk)])
    (slope, intercept), *_ = np.linalg.lstsq(design, logv, rcond=None)
    resid = logv - design @ np.array([slope, intercept])
    rms = float(np.sqrt(np.mean(resid**2)))
    return GrowthReport((lo, hi), float(slope), float(intercept), rms)
