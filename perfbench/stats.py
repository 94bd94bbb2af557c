"""Order statistics and metric-name rules of the benchmark."""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Mapping, Sequence

#: How many samples must lie beyond a reported percentile.  A p90 read
#: off fewer tail samples than this is one or two outliers, not a tail.
MIN_TAIL = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to have a tail."""


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float, min_tail: int = MIN_TAIL) -> float:
    """The ``q``-th percentile by nearest rank, with a tail of ``min_tail``.

    Raises :class:`TooFewSamples` unless at least ``min_tail`` samples
    rank above the reported one.
    """
    ordered = sorted(values)
    rank = _rank(len(ordered), q)
    if len(ordered) - rank < min_tail:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples leaves "
            f"{len(ordered) - rank} beyond it; {min_tail} are needed"
        )
    return ordered[rank - 1]


def samples_needed(q: float, min_tail: int = MIN_TAIL) -> int:
    """The smallest sample count for which :func:`percentile` answers."""
    n = 1
    while n - _rank(n, q) < min_tail:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric or workload name."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def validate_unit(unit: str) -> str:
    if not isinstance(unit, str) or not _UNIT.fullmatch(unit):
        raise ValueError(f"illegal unit {unit!r}")
    return unit


def check_emitted(
    metrics: Mapping[str, Mapping], declared: Sequence[Mapping]
) -> Dict[str, Mapping]:
    """Check emitted ``metrics`` against the declared metric list.

    Every declared metric must be present with its declared unit and a
    finite number, and nothing undeclared may appear.
    """
    expected = {validate_metric_name(m["name"]): validate_unit(m["unit"]) for m in declared}
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise ValueError(f"metrics differ from the declaration: missing {missing}, undeclared {extra}")
    for name, entry in metrics.items():
        if entry["unit"] != expected[name]:
            raise ValueError(f"{name}: unit {entry['unit']!r}, declared {expected[name]!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name}: value {value!r} is not a finite number")
    return dict(metrics)
