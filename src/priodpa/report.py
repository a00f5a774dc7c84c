"""Ratio reports: one row per algorithm-on-instance run.

CSV columns are fixed: graph, algorithm, instance_hash, gain_alg, gain_opt,
ratio, advice_bits, ms.  The ratio is rendered as the shortest float
representation ("2.4", "1.0"), "inf" when only the optimum gained
anything, and left empty when no oracle value is available.  JSON rows carry the
same fields plus an ``infinite`` flag and the exact fraction, and
round-trip losslessly (the ratio is derived from the integer gains).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
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
        if self.gain_opt is None:
            return None
        return ratio(self.gain_opt, self.gain_alg)

    def ratio_text(self):
        r = self.ratio
        return "" if r is None else format_ratio(r)

    def to_json(self):
        r = self.ratio
        return {
            "graph": self.graph,
            "algorithm": self.algorithm,
            "instance_hash": self.instance_hash,
            "gain_alg": self.gain_alg,
            "gain_opt": self.gain_opt,
            "ratio": None if r is None or r == inf else float(r),
            "infinite": r == inf,
            "ratio_exact": None if r is None or r == inf else f"{r.numerator}/{r.denominator}",
            "advice_bits": self.advice_bits,
            "ms": self.ms,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            graph=obj["graph"],
            algorithm=obj["algorithm"],
            instance_hash=obj["instance_hash"],
            gain_alg=obj["gain_alg"],
            gain_opt=obj["gain_opt"],
            advice_bits=obj["advice_bits"],
            ms=obj["ms"],
        )


def format_ratio(r):
    """Shortest float text of an exact ratio, or "inf"."""
    return "inf" if r == inf else repr(float(r))


def render_csv(reports):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        writer.writerow([
            rep.graph,
            rep.algorithm,
            rep.instance_hash,
            rep.gain_alg,
            "" if rep.gain_opt is None else rep.gain_opt,
            rep.ratio_text(),
            rep.advice_bits,
            rep.ms,
        ])
    return buf.getvalue()


def render_json_lines(reports):
    return "".join(json.dumps(rep.to_json(), sort_keys=True) + "\n" for rep in reports)


def render(reports, fmt):
    if fmt == "csv":
        return render_csv(reports)
    if fmt == "json":
        return render_json_lines(reports)
    raise InvalidParameterError(f"unknown output format {fmt!r}")
