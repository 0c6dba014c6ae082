"""Medians, quartiles and relative spread of a set of samples."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values) -> dict:
    """Median, quartiles, sample count and spread: the interquartile
    distance as a share of the median (None for a zero median)."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}
