"""Ratio reports: one row per algorithm-on-instance run.

A row is the fields of ``RatioReport``; in CSV they come in the order of
CSV_COLUMNS, with the ratio after the optimum.  The ratio is derived from
the integer gains and rendered as the shortest float text ("2.4", "1.0"),
"inf" when only the optimum gained anything, and empty, like the optimum,
when no oracle value is available.  JSON rows add the ratio, an
``infinite`` flag and the exact fraction, and round-trip losslessly.
"""

from __future__ import annotations

import csv
import io
import json
from math import inf

from .graphs import InvalidParameterError, Value, ratio

CSV_COLUMNS = ("graph", "algorithm", "instance_hash", "gain_alg", "gain_opt",
               "ratio", "advice_bits", "ms")


class RatioReport(Value):
    """The row of one algorithm-on-instance run.  It is immutable: every
    attribute assignment raises AttributeError."""

    __slots__ = ("graph", "algorithm", "instance_hash", "gain_alg", "gain_opt", "advice_bits", "ms")

    def __init__(self, graph, algorithm, instance_hash, gain_alg, gain_opt, advice_bits=0, ms=0):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "algorithm", algorithm)
        object.__setattr__(self, "instance_hash", instance_hash)
        object.__setattr__(self, "gain_alg", gain_alg)
        object.__setattr__(self, "gain_opt", gain_opt)  # int, or None when the oracle was skipped
        object.__setattr__(self, "advice_bits", advice_bits)
        object.__setattr__(self, "ms", ms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _row(self):
        """The fields by name."""
        return {name: getattr(self, name) for name in self._field_names}

    @property
    def ratio(self):
        opt = self.gain_opt
        return None if opt is None else ratio(opt, self.gain_alg)

    def ratio_text(self):
        r = self.ratio
        return "" if r is None else format_ratio(r)

    def to_json(self):
        r = self.ratio
        exact = None if r is None or r == inf else f"{r.numerator}/{r.denominator}"
        return {**self._row(), "ratio": None if exact is None else float(r),
                "infinite": r == inf, "ratio_exact": exact}

    @classmethod
    def from_json(cls, obj):
        return cls(**{name: obj[name] for name in cls._field_names})


def format_ratio(r):
    """Shortest float text of an exact ratio, or "inf"."""
    return "inf" if r == inf else repr(float(r))


def render_csv(reports):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        cells = {**rep._row(), "ratio": rep.ratio_text()}
        writer.writerow(["" if cells[c] is None else cells[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def render_json_lines(reports):
    return "".join(json.dumps(rep.to_json(), sort_keys=True) + "\n" for rep in reports)


def render(reports, fmt):
    if fmt == "csv":
        return render_csv(reports)
    if fmt == "json":
        return render_json_lines(reports)
    raise InvalidParameterError(f"unknown output format {fmt!r}")
