"""Spans and counts around priodpa's public functions, for traced runs.

``Tracer.install`` swaps each instrumented function for a wrapper, in every
``priodpa`` module namespace that binds it (so calls the package makes to
itself are seen too), and ``uninstall`` puts the originals back.  A span is
a ``[name, start_ns, end_ns, parent, note]`` list kept in memory; the pass
is reduced to per-layer metrics only after it ends.  Untraced runs never
install anything.
"""

import statistics
import sys
import time
from collections import Counter

# (module, attribute, span name).  A dotted attribute is a method.
SPANS = (
    ("graphs", "Instance.__init__", "graphs.instance_build"),
    ("graphs", "TreeGraph.__init__", "graphs.tree_build"),
    ("graphs", "load_instance", "graphs.load_instance"),
    ("engine", "run", "engine.run"),
    ("engine", "Session.max_of", "engine.max_of"),
    ("paths", "greedy_paths", "paths.greedy"),
    ("lwdpa", "greedy_lwdpa", "lwdpa.greedy"),
    ("trees", "greedy_cat", "trees.greedy"),
    ("lwdpa", "encode_lwdpa_advice", "lwdpa.encode"),
    ("trees", "encode_cat_advice", "trees.encode"),
    ("lwdpa", "adversary_play_lwdpa", "lwdpa.adversary"),
    ("trees", "tree_adversary", "trees.adversary"),
    ("trees", "pack_s4", "trees.pack_s4"),
    ("oracle", "brute_force_opt", "oracle.brute_force"),
    ("oracle", "greediest_opt", "oracle.greediest"),
    ("oracle", "max_allocatable", "oracle.max_allocatable"),
    ("reduction", "run_guess", "reduction.guess"),
    ("reduction", "run_tguess", "reduction.tguess"),
    ("grid", "exhaustive_verify_3x3", "grid.verify_3x3"),
    ("grid", "grid_adversary", "grid.adversary"),
    ("report", "render", "report.render"),
    ("cli", "main", "cli.main"),
)

# Per-layer metrics: name -> unit.  Times are seconds per traced pass.
PER_LAYER = {
    "graphs.instance_build_s": "s",
    "graphs.tree_build_s": "s",
    "graphs.load_instance_s": "s",
    "engine.run_s": "s",
    "engine.decisions": "count",
    "engine.key_evals": "count",
    "engine.key_evals_per_decision": "evals/decision",
    "engine.max_of_s": "s",
    "engine.max_of_calls": "count",
    "paths.greedy_s": "s",
    "lwdpa.greedy_s": "s",
    "trees.greedy_s": "s",
    "lwdpa.encode_self_s": "s",
    "trees.encode_self_s": "s",
    "lwdpa.decode_s": "s",
    "trees.decode_s": "s",
    "lwdpa.tape_bits": "bits",
    "trees.tape_bits": "bits",
    "trees.bound_bits": "bits",
    "trees.bits_over_bound": "ratio",
    "lwdpa.adversary_s": "s",
    "trees.adversary_s": "s",
    "trees.pack_s4_s": "s",
    "oracle.brute_force_s": "s",
    "oracle.brute_force_calls": "count",
    "oracle.requests_per_call": "requests/call",
    "oracle.greediest_s": "s",
    "oracle.greediest_calls": "count",
    "oracle.max_allocatable_s": "s",
    "oracle.too_large": "count",
    "reduction.guess_s": "s",
    "reduction.tguess_s": "s",
    "reduction.blocks": "count",
    "grid.verify_3x3_s": "s",
    "grid.adversary_s": "s",
    "report.render_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "bench.items": "count",
    "bench.check_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly for a given seed.
DETERMINISTIC = tuple(name for name, unit in PER_LAYER.items() if unit != "s")


class Tracer:
    def __init__(self, pd):
        self.pd = pd
        self.spans = []
        self.key_evals = [0]
        self.decisions = [0]
        self._tree_graphs = []
        self._stack = []
        self._restore = []
        self._notes = {
            "engine.run": lambda args, result: args[0].name,
            "oracle.brute_force": lambda args, result: len(args[0].requests),
            "lwdpa.encode": lambda args, result: len(result),
            "trees.encode": self._note_tree_tape,
            "reduction.guess": lambda args, result: len(result.records),
            "reduction.tguess": lambda args, result: len(result.records),
        }

    def _note_tree_tape(self, args, result):
        self._tree_graphs.append(args[0].graph)
        return len(result)

    # ---------------------------------------------------------------- wrappers

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        note = self._notes.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = type(exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return wrapper

    def _counted_init(self, init):
        order_cls = self.pd.engine.PriorityOrder
        key_evals = self.key_evals

        def counting(key):
            def counted_key(r):
                key_evals[0] += 1
                return key(r)
            return counted_key

        def wrapper(order, key, *args, **kwargs):
            # an order built from another order's bound key is an alias; its
            # evaluations are already counted by the inner order
            if not isinstance(getattr(key, "__self__", None), order_cls):
                key = counting(key)
            init(order, key, *args, **kwargs)

        return wrapper

    def _counted_feed(self, feed):
        decisions = self.decisions

        def wrapper(session, request):
            decisions[0] += 1
            return feed(session, request)

        return wrapper

    # ------------------------------------------------------------ install

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append((cls, attr, original))

    def _replace_function(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "priodpa" or mod_name.startswith("priodpa."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))

    def install(self):
        pd = self.pd
        for mod_name, attr, name in SPANS:
            mod = getattr(pd, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._replace_method(getattr(mod, cls_name), meth,
                                     lambda fn, name=name: self._span(name, fn))
            else:
                original = getattr(mod, attr)
                self._replace_function(original, self._span(name, original))
        self._replace_method(pd.engine.PriorityOrder, "__init__", self._counted_init)
        self._replace_method(pd.engine.Session, "feed", self._counted_feed)

    def uninstall(self):
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    # ------------------------------------------------------------ metrics

    def metrics(self):
        """Reduce this pass's spans and counts to the per-layer metrics."""
        spans = self.spans
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls, noted = Counter(), Counter(), Counter(), Counter()
        run_by_alg, too_large = Counter(), 0
        too_large_error = self.pd.oracle.InstanceTooLargeError
        for i, (name, start, end, _, note) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if note is too_large_error:
                too_large += 1
            elif isinstance(note, int):
                noted[name] += note
            elif name == "engine.run" and isinstance(note, str):
                run_by_alg[note] += end - start

        def sec(ns):
            return ns / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        decisions, key_evals = self.decisions[0], self.key_evals[0]
        trees_bits = noted["trees.encode"]
        bound_bits = sum(self.pd.trees.tree_advice_bound(g) for g in self._tree_graphs)
        return {
            "graphs.instance_build_s": sec(total["graphs.instance_build"]),
            "graphs.tree_build_s": sec(total["graphs.tree_build"]),
            "graphs.load_instance_s": sec(total["graphs.load_instance"]),
            "engine.run_s": sec(total["engine.run"]),
            "engine.decisions": decisions,
            "engine.key_evals": key_evals,
            "engine.key_evals_per_decision": ratio(key_evals, decisions),
            "engine.max_of_s": sec(total["engine.max_of"]),
            "engine.max_of_calls": calls["engine.max_of"],
            "paths.greedy_s": sec(total["paths.greedy"]),
            "lwdpa.greedy_s": sec(total["lwdpa.greedy"]),
            "trees.greedy_s": sec(total["trees.greedy"]),
            "lwdpa.encode_self_s": sec(own["lwdpa.encode"]),
            "trees.encode_self_s": sec(own["trees.encode"]),
            "lwdpa.decode_s": sec(run_by_alg["decode-lwdpa"]),
            "trees.decode_s": sec(run_by_alg["decode-cat"]),
            "lwdpa.tape_bits": noted["lwdpa.encode"],
            "trees.tape_bits": trees_bits,
            "trees.bound_bits": bound_bits,
            "trees.bits_over_bound": ratio(trees_bits, bound_bits),
            "lwdpa.adversary_s": sec(total["lwdpa.adversary"]),
            "trees.adversary_s": sec(total["trees.adversary"]),
            "trees.pack_s4_s": sec(total["trees.pack_s4"]),
            "oracle.brute_force_s": sec(total["oracle.brute_force"]),
            "oracle.brute_force_calls": calls["oracle.brute_force"],
            "oracle.requests_per_call": ratio(noted["oracle.brute_force"],
                                              calls["oracle.brute_force"]),
            "oracle.greediest_s": sec(total["oracle.greediest"]),
            "oracle.greediest_calls": calls["oracle.greediest"],
            "oracle.max_allocatable_s": sec(total["oracle.max_allocatable"]),
            "oracle.too_large": too_large,
            "reduction.guess_s": sec(total["reduction.guess"]),
            "reduction.tguess_s": sec(total["reduction.tguess"]),
            "reduction.blocks": noted["reduction.guess"] + noted["reduction.tguess"],
            "grid.verify_3x3_s": sec(total["grid.verify_3x3"]),
            "grid.adversary_s": sec(total["grid.adversary"]),
            "report.render_s": sec(total["report.render"]),
            "cli.main_s": sec(total["cli.main"]),
            "cli.self_s": sec(own["cli.main"]),
            "cli.calls": calls["cli.main"],
        }, dict(calls)


def median_metrics(passes):
    """Lower median of each metric over the traced passes: a value one pass
    really had, so counts stay whole numbers."""
    return {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}
