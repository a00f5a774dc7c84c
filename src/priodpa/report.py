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
from dataclasses import dataclass, fields
from math import inf

from .graphs import InvalidParameterError, ratio

CSV_COLUMNS = ("graph", "algorithm", "instance_hash", "gain_alg", "gain_opt",
               "ratio", "advice_bits", "ms")


@dataclass(frozen=True)
class RatioReport:
    graph: str
    algorithm: str
    instance_hash: str
    gain_alg: int
    gain_opt: object  # int, or None when the oracle was skipped
    advice_bits: int = 0
    ms: int = 0

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
        return {**vars(self), "ratio": None if exact is None else float(r),
                "infinite": r == inf, "ratio_exact": exact}

    @classmethod
    def from_json(cls, obj):
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


def format_ratio(r):
    """Shortest float text of an exact ratio, or "inf"."""
    return "inf" if r == inf else repr(float(r))


def render_csv(reports):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        cells = {**vars(rep), "ratio": rep.ratio_text()}
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
