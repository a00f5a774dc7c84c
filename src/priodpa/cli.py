"""Command-line harness.

Subcommands:

* ``run``        execute one algorithm on an instance file, report the ratio
* ``adversary``  play a lower-bound construction against an algorithm
* ``advice``     encode an optimal-advice tape, or decode and run one
* ``reduce``     run a string-guessing reduction and print its accounting
* ``verify``     brute-force an instance, or replay the 3x3 grid analysis
* ``pack-s4``    print the 4-star packing of a tree

Exit codes: 0 fine, 1 a verified property failed, 2 usage or input error.
``main`` may be called repeatedly in one process: the parser is built on
the first call and shared by every later one.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import cache

from .graphs import (
    PriodpaError, PropertyViolation, check_host_size, graph_from_json, instance_hash,
    load_instance, open_file, read_json,
)
from .engine import AdviceTape, decode_run, run
from .oracle import InstanceTooLargeError, brute_force_opt
from .graphs import gain as gain_of
from .paths import greedy_path_algorithm
from .lwdpa import (
    PabParams,
    adversary_play_lwdpa,
    encode_lwdpa_advice,
    greedy_lwdpa_algorithm,
    LwdpaAdviceAlgorithm,
)
from .trees import (
    CatAdviceAlgorithm,
    encode_cat_advice,
    greedy_cat_algorithm,
    pack_s4,
    sigma,
    tree_adversary,
)
from .reduction import run_guess, run_tguess, fig9_tree
from .grid import exhaustive_verify_3x3, grid_adversary, grid_battery
from .battery import battery
from .report import RatioReport, format_ratio, render


class UsageError(PriodpaError):
    pass


def _canonical_algorithm(name, graph):
    table = {
        "greedy-path": ("path", greedy_path_algorithm),
        "greedy-lwdpa": ("path", greedy_lwdpa_algorithm),
        "greedy-cat": ("tree", greedy_cat_algorithm),
    }
    if name in table:
        kind, factory = table[name]
        if graph.kind != kind:
            raise UsageError(f"{name} runs on {kind} hosts, not {graph.kind}")
        return factory()
    problem = {"path": "dpa-path", "tree": "cat"}.get(graph.kind)
    if problem is None:
        raise UsageError(f"no named algorithms for {graph.kind} hosts")
    return _battery_algorithm(name, problem)


def _battery_algorithm(name, problem):
    return _by_name(battery(problem), name, f"algorithm {name!r} for {problem}")


def _by_name(algorithms, name, unknown):
    for alg in algorithms:
        if alg.name == name:
            return alg
    known = ", ".join(a.name for a in algorithms)
    raise UsageError(f"unknown {unknown}; known: {known}")


def _emit(text, out):
    if out:
        with open_file(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_row(args, inst, alg_name, alg_gain, opt_gain, bits, ms):
    row = RatioReport(
        graph=inst.graph.descriptor(),
        algorithm=alg_name,
        instance_hash=instance_hash(inst),
        gain_alg=alg_gain,
        gain_opt=opt_gain,
        advice_bits=bits,
        ms=0 if args.seed is not None else ms,
    )
    _emit(render([row], args.format), args.out)


def _run_and_report(args, alg, inst, tape=None):
    """Run, time and score one algorithm, with the oracle's optimum when
    the instance is small enough, and emit its report row."""
    t0 = time.monotonic()
    result = run(alg, inst) if tape is None else decode_run(alg, inst, tape)
    ms = int((time.monotonic() - t0) * 1000)
    alg_gain = gain_of(result.solution, alg.mode)
    try:
        opt = brute_force_opt(inst, mode=alg.mode).optimum
    except InstanceTooLargeError:
        opt = None
    _emit_row(args, inst, alg.name, alg_gain, opt, result.bits_consumed, ms)
    return 0


def cmd_run(args):
    inst = load_instance(args.instance)
    return _run_and_report(args, _canonical_algorithm(args.alg, inst.graph), inst)


# the family-specific flags each adversary family reads
_FAMILY_FLAGS = {"pab": ("a", "b"), "tree": ("tree",), "grid": ()}


def cmd_adversary(args):
    unread = [f"--{f}" for f in ("a", "b", "tree")
              if getattr(args, f) is not None and f not in _FAMILY_FLAGS[args.family]]
    if unread:
        raise UsageError(f"--family {args.family} takes no {' or '.join(unread)}")
    t0 = time.monotonic()
    if args.family == "pab":
        if args.a is None or args.b is None:
            raise UsageError("--family pab needs --a and --b")
        alg = _battery_algorithm(args.alg, "lwdpa")
        params = PabParams(args.a, args.b)
        check_host_size(params.l, f"P_{{{args.a},{args.b}}}")
        outcome = adversary_play_lwdpa(alg, params)
    elif args.family == "tree":
        tree = _load_tree(args.tree)
        alg = _battery_algorithm(args.alg, "cat")
        outcome = tree_adversary(alg, tree)
    else:
        alg = _by_name(grid_battery(), args.alg, f"grid algorithm {args.alg!r}")
        outcome = grid_adversary(alg)
    ms = int((time.monotonic() - t0) * 1000)
    _emit_row(args, outcome.instance, args.alg, outcome.alg_gain, outcome.opt_gain, 0, ms)
    return 0


def cmd_advice(args):
    inst = load_instance(args.instance)
    if args.problem == "lwdpa":
        encode, decoder = encode_lwdpa_advice, LwdpaAdviceAlgorithm
    else:
        encode, decoder = encode_cat_advice, CatAdviceAlgorithm
    if args.encode:
        unread = [f"--{f}" for f in ("tape", "format") if getattr(args, f) is not None]
        if unread:
            raise UsageError(f"advice --encode takes no {' or '.join(unread)}")
        tape = encode(inst)
        _emit(json.dumps(tape.to_json(), sort_keys=True) + "\n", args.out)
        return 0
    if not args.tape:
        raise UsageError("--decode needs --tape FILE")
    tape = AdviceTape.from_json(read_json(args.tape))
    args.format = args.format or "csv"
    return _run_and_report(args, decoder(), inst, tape)


def cmd_reduce(args):
    n = len(args.bits) if args.bits is not None else args.n
    if n is None:
        raise UsageError("reduce needs --bits or --n")
    if args.bits is not None and args.n is not None:
        raise UsageError("reduce takes --bits or --n, not both")
    if args.tree and args.problem != "cat":
        raise UsageError("--tree is for --problem cat")
    # the path gadget has 3n edges, fig9_tree(n) has 6n + 1, and a tree
    # holding n disjoint 4-stars has at least 4n
    edges = 3 * n if args.problem == "lwdpa" else 4 * n if args.tree else 6 * n + 1
    check_host_size(edges, f"for {n} hidden bits")
    bits = args.bits
    if bits is None:
        rng = random.Random(args.seed if args.seed is not None else 0)
        bits = "".join(rng.choice("01") for _ in range(n))
    if args.problem == "lwdpa":
        alg = _battery_algorithm(args.alg, "lwdpa")
        outcome = run_guess(alg, bits)
    else:
        alg = _battery_algorithm(args.alg, "cat")
        tree = _load_tree(args.tree) if args.tree else fig9_tree(len(bits))
        outcome = run_tguess(alg, tree, bits)
    lines = ["block,m,guess,hidden,correct,alg_gain,opt_gain"]
    for rec in outcome.records:
        lines.append(
            f"{rec.block},{rec.m.x}-{rec.m.y},{rec.guess},{rec.hidden},"
            f"{int(rec.correct)},{rec.alg_gain},{rec.opt_gain}"
        )
    wrong = outcome.wrong
    lines.append(f"total,,,,{n - wrong},{outcome.alg_gain},{outcome.opt_gain}")
    lines.append(f"# ratio {format_ratio(outcome.ratio)} wrong {wrong} of {n}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if outcome.passed else 1


def cmd_verify(args):
    if args.grid_3x3 and (args.instance or args.mode):
        raise UsageError("verify --grid-3x3 takes no --instance or --mode")
    if args.grid_3x3:
        report = exhaustive_verify_3x3()
        lines = ["request,path,case,alg_total,followups_only,opt,ratio,ok"]
        for c in report.cases:
            path = "-".join(f"{r}{col}" for r, col in c.path)
            lines.append(
                f"{c.request.x}->{c.request.y},{path},{c.case},{c.alg_total},"
                f"{c.followup_only},{c.opt},{c.ratio},{int(c.ok)}"
            )
        lines.append(
            f"# pairs {report.pair_count}, corner cases {report.corner_cases}, "
            f"center cases {report.center_cases}, passed {report.passed}"
        )
        _emit("\n".join(lines) + "\n", args.out)
        return 0 if report.passed else 1
    if not args.instance:
        raise UsageError("verify needs --instance FILE or --grid-3x3")
    inst = load_instance(args.instance)
    res = brute_force_opt(inst, mode=args.mode or "count")
    lines = [f"optimum {res.optimum}"]
    for r in res.witness.accepted:
        lines.append(f"accept {r.x}-{r.y}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_pack_s4(args):
    tree = _load_tree(args.tree)
    copies = pack_s4(tree)
    lines = [f"sigma {sigma(tree)}", f"copies {len(copies)}"]
    for center, leaves in copies:
        lines.append(f"star {center}: {' '.join(str(v) for v in leaves)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load_tree(path):
    if not path:
        raise UsageError("a tree file is required")
    obj = read_json(path)
    if isinstance(obj, dict) and "graph" in obj:
        obj = obj["graph"]
    g = graph_from_json(obj)
    if g.kind != "tree":
        raise UsageError(f"{path} does not describe a tree")
    return g


@cache
def build_parser():
    parser = argparse.ArgumentParser(prog="priodpa")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rows=False, fmt="csv"):
        if rows:  # only report rows come in both formats
            p.add_argument("--format", choices=("csv", "json"), default=fmt)
        p.add_argument("--out")

    p = sub.add_parser("run", help="run one algorithm on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--alg", required=True)
    common(p, rows=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("adversary", help="play a lower-bound construction")
    p.add_argument("--family", required=True, choices=("pab", "tree", "grid"))
    p.add_argument("--alg", required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--tree")
    common(p, rows=True)
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("advice", help="encode or decode an advice tape")
    p.add_argument("--problem", required=True, choices=("lwdpa", "cat"))
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--encode", action="store_true")
    mode.add_argument("--decode", action="store_true")
    p.add_argument("--instance", required=True)
    p.add_argument("--tape")
    common(p, rows=True, fmt=None)  # --encode prints a tape, in no --format
    p.set_defaults(fn=cmd_advice)

    p = sub.add_parser("reduce", help="run a string-guessing reduction")
    p.add_argument("--problem", required=True, choices=("lwdpa", "cat"))
    p.add_argument("--alg", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--bits")
    p.add_argument("--tree")
    common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", help="brute-force an instance or the 3x3 grid")
    p.add_argument("--instance")
    p.add_argument("--mode", choices=("count", "length"))
    p.add_argument("--grid-3x3", dest="grid_3x3", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pack-s4", help="pack edge-disjoint 4-stars of a tree")
    p.add_argument("--tree", required=True)
    common(p)
    p.set_defaults(fn=cmd_pack_s4)

    # verify and pack-s4 draw nothing at random and print no ms column
    for name in ("run", "adversary", "advice", "reduce"):
        sub.choices[name].add_argument("--seed", type=int, default=None,
                                       help="fix all randomness; also zeroes the ms column")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PropertyViolation as exc:
        print(f"property failed: {exc}", file=sys.stderr)
        return 1
    except (PriodpaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
