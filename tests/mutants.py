"""Mutation smoke test: each named mutant must fail its named test file.

Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant, ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a
temporary directory, one source line is replaced there, and pytest runs the
named test file against the copy.  The unmutated copy must pass those files
first.  A mutant whose text no longer appears exactly once is reported as
stale.  The exit code is 0 when every mutant is killed, 1 when one is
not, and 2 for an unknown mutant name.
The script needs only the standard library and pytest, and pytest does not
collect it (its name does not start with ``test_``).
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under src/priodpa, original text, mutated text, test file)
MUTANTS = {
    "drain-never-resorts": (
        "engine.py",
        "                    if self.order is not order:\n",
        "                    if False:\n",
        "tests/test_engine.py",
    ),
    "drain-forgets-seen-orders": (
        "engine.py",
        "            if order in seen:\n",
        "            if False:\n",
        "tests/test_engine.py",
    ),
    "reversed-keeps-base-key": (
        "engine.py",
        "        back.descending = not self.descending\n",
        "        back.descending = self.descending\n",
        "tests/test_engine.py",
    ),
    "sort-without-strictness": (
        "engine.py",
        "                if keys[a] == keys[b]:\n",
        "                if False:\n",
        "tests/test_engine.py",
    ),
    "rank-without-tie-gate": (
        "engine.py",
        "        if len(set(keys)) != len(keys):\n            # the sort is stable",
        "        if False:\n            # the sort is stable",
        "tests/test_engine.py",
    ),
    "drain-resumes-past-a-live-request": (
        "engine.py",
        "            seen[order] = (seq, k)\n",
        "            seen[order] = (seq, k + 2)\n",
        "tests/test_drain_model.py",
    ),
    "ranking-ignores-order-change": (
        "engine.py",
        "seq, k = [tail[t] for t in order.rank([items[j] for j in tail])], 0",
        "seq, k = tail, 0",
        "tests/test_reduction.py",
    ),
    "pack-s4-skips-neighbour-update": (
        "trees.py",
        "                    high_nbs[x] -= 1\n",
        "                    pass\n",
        "tests/test_trees.py",
    ),
    "tree-edge-mask-or": (
        "graphs.py",
        "return self.up[x] ^ self.up[y]",
        "return self.up[x] | self.up[y]",
        "tests/test_trees.py",
    ),
    "instance-dedupes-by-left-endpoint": (
        "graphs.py",
        "if len(set(map(_endpoints, requests))) != len(requests):",
        "if len({r.x for r in requests}) != len(requests):",
        "tests/test_graphs.py",
    ),
    "path-mask-off-by-one": (
        "graphs.py",
        "return ((1 << y) - 1) ^ ((1 << x) - 1)",
        "return ((1 << y + 1) - 1) ^ ((1 << x) - 1)",
        "tests/test_graphs.py",
    ),
    "tree-up-bit-of-parent": (
        "graphs.py",
        "up[w] = up[v] | 1 << w",
        "up[w] = up[v] | 1 << v",
        "tests/test_trees.py",
    ),
    "sides-larger-first": (
        "trees.py",
        "cx, cy = (c for c in tree.children[v] if mask >> c & 1)",
        "cy, cx = (c for c in tree.children[v] if mask >> c & 1)",
        "tests/test_trees.py",
    ),
    "brute-force-takes-first": (
        "oracle.py",
        "branches = (1, 0) if largest else (0, 1)",
        "branches = (1, 0) if largest else (1, 0)",
        "tests/test_oracle.py",
    ),
    "greediest-leaves-first": (
        "oracle.py",
        "branches = (1, 0) if largest else (0, 1)",
        "branches = (0, 1) if largest else (0, 1)",
        "tests/test_oracle.py",
    ),
    "bound-prunes-at-best-plus-one": (
        "oracle.py",
        "        elif g + r > best[0]:\n",
        "        elif g + r > best[0] + 1:\n",
        "tests/test_oracle.py",
    ),
    "best-keeps-weight-not-mask": (
        "oracle.py",
        "                best[0], best[1] = g, s\n",
        "                best[0] = g\n",
        "tests/test_oracle.py",
    ),
    "grid-size-bound-too-tight": (
        "oracle.py",
        "    if got + n - i - 1 > best:\n",
        "    if got + n - i - 2 > best:\n",
        "tests/test_oracle.py",
    ),
    "grid-size-scanned-downward": (
        "oracle.py",
        "key=lambda c: c[::-1]):",
        "key=lambda c: c[::-1], reverse=True):",
        "tests/test_oracle.py",
    ),
    "verify-cont-keyed-by-followups": (
        "grid.py",
        "            alg_total = 1 + _routable_size(lists, mask)\n",
        "            alg_total = 1 + built.setdefault((\"cont\", ends), _routable_size(lists, mask))\n",
        "tests/test_golden.py",
    ),
    "verify-opt-floor-off-by-one": (
        "grid.py",
        "for o in own for u in full) else fol\n",
        "for o in own for u in full) else fol + 1\n",
        "tests/test_grid.py",
    ),
    "routings-keeps-overlaps": (
        "oracle.py",
        "        found = {u | m for u in found for m in masks if not u & m}\n",
        "        found = {u | m for u in found for m in masks}\n",
        "tests/test_oracle.py",
    ),
    "routable-size-ignores-blocked": (
        "oracle.py",
        "    return _most(lists, len(lists), 0, blocked, 0, 0)\n",
        "    return _most(lists, len(lists), 0, 0, 0, 0)\n",
        "tests/test_oracle.py",
    ),
    "max-allocatable-scans-one-size-short": (
        "oracle.py",
        "    for picked in sorted(combinations(range(len(reqs)), size), key=lambda c: c[::-1]):\n",
        "    for picked in sorted(combinations(range(len(reqs)), size - 1), key=lambda c: c[::-1]):\n",
        "tests/test_oracle.py",
    ),
    "served-case-drops-reverse": (
        "grid.py",
        "        vs = vs[::-1]\n",
        "        pass\n",
        "tests/test_grid.py",
    ),
    "center-ends-swap-corner-and-midpoint": (
        "grid.py",
        "((t, antipode(t_prime)), (t, antipode(u)), (t_prime, other_mid))",
        "((t, antipode(other_mid)), (t, antipode(u)), (other_mid, t_prime))",
        "tests/test_grid.py",
    ),
    "grid-reverse-direction-bit": (
        "graphs.py",
        "bits[v, w] = bits[w, v] = 1 << i",
        "bits[v, w], bits[w, v] = 1 << 2 * i, 1 << 2 * i + 1",
        "tests/test_grid.py",
    ),
    "route-step-wrong-edge-bit": (
        "graphs.py",
        "tuple((w, vbit[w], bits[v, w], (v, w)) for w in nbs)",
        "tuple((w, vbit[w], vbit[w], (v, w)) for w in nbs)",
        "tests/test_grid.py",
    ),
    "grid-route-one-direction": (
        "graphs.py",
        "                    or self.routes(request.y, request.x).get(route, 0))\n",
        "                    or 0)\n",
        "tests/test_grid.py",
    ),
    "grid-routes-keyed-backward": (
        "graphs.py",
        "                _GRID_ROUTES[x, y] = table\n",
        "                _GRID_ROUTES[y, x] = table\n",
        "tests/test_grid.py",
    ),
    "grid-routes-lookup-drops-y": (
        "graphs.py",
        "        table = _GRID_ROUTES.get((x, y))\n",
        "        table = _GRID_ROUTES.get(x)\n",
        "tests/test_grid.py",
    ),
    "sha256-from-hashlib": (
        "graphs.py",
        "        from _sha256 import sha256\n",
        "        from hashlib import sha256\n",
        "tests/test_golden.py",
    ),
    "cli-parser-per-call": (
        "cli.py",
        "@cache\ndef build_parser():\n",
        "def build_parser():\n",
        "tests/test_report_cli.py",
    ),
    "lwdpa-encoder-drops-offset-0": (
        "lwdpa.py",
        "4 * blk <= s",
        "4 * blk < s",
        "tests/test_lwdpa.py",
    ),
    "pab-universe-ignores-params": (
        "lwdpa.py",
        "    g, longs, units = params.universe\n    if r_star",
        "    g, longs, units = vars(_pab_answer).setdefault(\"universe\", params.universe)\n    if r_star",
        "tests/test_lwdpa.py",
    ),
    "digest-memo-shared-across-seeds": (
        "battery.py",
        "lambda g, s=seed, digests={}: _random_order(s, digests),",
        "lambda g, s=seed, digests=vars(battery).setdefault(\"digests\", {}): _random_order(s, digests),",
        "tests/test_engine.py",
    ),
    "star-gadget-cache-ignores-tree": (
        "reduction.py",
        "    if last is not tree:\n",
        "    if last is None:\n",
        "tests/test_reduction.py",
    ),
    "tguess-star-count-wrong-block": (
        "reduction.py",
        "len(gadget[2]) // 6",
        "len(gadget[2]) // 4",
        "tests/test_reduction.py",
    ),
    "adversary-skips-witness-check": (
        "engine.py",
        "    if not validate_solution(instance, witness):\n",
        "    if False:\n",
        "tests/test_engine.py",
    ),
    "adversary-answers-a-rejection": (
        "engine.py",
        "    if first.accept:\n",
        "    if True:\n",
        "tests/test_grid.py",
    ),
    "read-field-rejects-zero-width": (
        "engine.py",
        "        if width < 0:\n",
        "        if width <= 0:\n",
        "tests/test_engine.py",
    ),
    "components-merge-by-or": (
        "oracle.py",
        "            if masks[j] & m:\n",
        "            if masks[j] | m:\n",
        "tests/test_oracle.py",
    ),
    "request-does-not-meet-itself": (
        "oracle.py",
        "        row = 1 << i\n",
        "        row = 0\n",
        "tests/test_oracle.py",
    ),
    "leave-subtracts-weight-twice": (
        "oracle.py",
        "gain, sub, rest - ws[j]\n",
        "gain, sub, rest - 2 * ws[j]\n",
        "tests/test_oracle.py",
    ),
    "feed-accepts-a-blocked-request": (
        "engine.py",
        "            if mask & self.blocked_mask:\n"
        "                raise IllegalAcceptanceError(f\"{self.algorithm.name}: allocation reuses an edge\")\n",
        "            if False:\n"
        "                raise IllegalAcceptanceError(f\"{self.algorithm.name}: allocation reuses an edge\")\n",
        "tests/test_engine.py",
    ),
    "fits-measures-a-grid-request": (
        "engine.py",
        "        if mask is None:\n"
        "            raise InvalidRequestError(\"edge masks are only defined on cycle-free hosts\")\n",
        "",
        "tests/test_graphs.py",
    ),
    "adaptive-never-readapts": (
        "engine.py",
        "            self.order = self._readapt(self)\n",
        "            pass\n",
        "tests/test_engine.py",
    ),
    "max-of-takes-last": (
        "engine.py",
        "return items[keys.index(max(keys) if self.descending else min(keys))]",
        "return items[keys.index(min(keys) if self.descending else max(keys))]",
        "tests/test_engine.py",
    ),
    "max-of-ignores-descending": (
        "engine.py",
        "return items[keys.index(max(keys) if self.descending else min(keys))]",
        "return items[keys.index(min(keys))]",
        "tests/test_engine.py",
    ),
    "validate-takes-an-unrouted-grid-solution": (
        "graphs.py",
        "        if routes is None:\n            return None\n",
        "        if routes is None:\n            routes = {}\n",
        "tests/test_graphs.py",
    ),
    "reject-first-witness-unrouted": (
        "graphs.py",
        "d.allocation or next(iter(self.routes(d.request.x, d.request.y)))",
        "d.allocation",
        "tests/test_grid.py",
    ),
    "encode-run-skips-check": (
        "engine.py",
        "    if set(accepted) != set(optimum):\n",
        "    if False:\n",
        "tests/test_report_cli.py",
    ),
    "reduce-ignores-a-block-over-its-cap": (
        "engine.py",
        "rec.alg_gain <= (rec.opt_gain if rec.correct else rec.opt_gain - 1)",
        "True",
        "tests/test_report_cli.py",
    ),
    "verify-grid-always-passes": (
        "cli.py",
        "        return 0 if report.passed else 1\n",
        "        return 0\n",
        "tests/test_report_cli.py",
    ),
    "csv-blanks-every-falsy-cell": (
        "report.py",
        '"" if cells[c] is None else cells[c]',
        '"" if not cells[c] else cells[c]',
        "tests/test_report_cli.py",
    ),
}


def _copy(dest):
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where, test_file):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_file],
        cwd=where, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    failed = [line.split(" - ")[0] for line in lines if line.startswith("FAILED ")]
    return proc.returncode, (failed or lines or [proc.stderr.strip()])[-1]


def main(names):
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
        return 2
    names = names or list(MUTANTS)
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        for test_file in sorted({MUTANTS[n][3] for n in names}):
            rc, summary = _pytest(base, test_file)
            if rc != 0:
                print(f"unmutated copy fails {test_file}: {summary}")
                return 1
        for name in names:
            module, original, mutated, test_file = MUTANTS[name]
            work = Path(tmp) / name
            _copy(work)
            target = work / "src" / "priodpa" / module
            text = target.read_text()
            if text.count(original) != 1:
                print(f"STALE    {name}: {original.strip()!r} is not in {module} exactly once")
                survived += 1
                continue
            target.write_text(text.replace(original, mutated))
            rc, summary = _pytest(work, test_file)
            killed = rc == 1
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {name} ({module}): {summary}")
    print(f"{len(names) - survived} of {len(names)} mutants killed")
    return 0 if survived == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
