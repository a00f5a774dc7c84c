"""Reductions from string guessing to disjoint path allocation.

An adversary holds a hidden bit string d_1..d_n.  Each round it lets the
algorithm pick its top remaining request m_k out of a fresh gadget block,
treats the algorithm's accept/reject as a guess y_k for d_k, and answers
with follow-ups that punish a wrong guess.  Any algorithm that guesses
fewer than (1 - H(eps)) * n bits of advice can't get more than (1 - eps) n
guesses right, which turns per-block gain accounting into competitive
lower bounds:

* on paths (length objective), blocks of three edges give ratio 3/(2+eps);
* on trees (count objective), packed 4-stars give ratio 2/(1+eps).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from .graphs import (
    Instance,
    InvalidParameterError,
    InvalidTreeError,
    PathGraph,
    Request,
    TreeGraph,
    edge_mask,
    gain,
    ratio,
    request_length,
)
from .engine import Session
from .trees import pack_s4


def binary_entropy(x):
    if not 0 <= x <= 1:
        raise InvalidParameterError("entropy argument must be in [0, 1]")
    if x in (0, 1):
        return 0.0
    return -x * log2(x) - (1 - x) * log2(1 - x)


def entropy_lower_bound(epsilon, n=1):
    """Advice bits needed to guess an eps fraction of n bits: (1-H(eps))n.

    Only defined for 1/2 <= epsilon < 1.  As epsilon approaches 1 the bound
    approaches n (every bit must be spelled out); epsilon = 1 itself is
    rejected because H is evaluated there only as a limit.
    """
    if not 0.5 <= epsilon < 1:
        raise InvalidParameterError("epsilon must lie in [1/2, 1)")
    return (1 - binary_entropy(epsilon)) * n


@dataclass(frozen=True)
class BlockRecord:
    block: int
    m: object
    guess: int
    hidden: int
    correct: bool
    alg_gain: int
    opt_gain: int


@dataclass
class GuessOutcome:
    instance: Instance
    records: tuple
    alg_gain: int
    opt_gain: int
    wrong: int
    ratio: object
    mode: str


def _parse_bits(bits):
    if isinstance(bits, str):
        if not bits or any(b not in "01" for b in bits):
            raise InvalidParameterError("hidden string must be nonempty over {0,1}")
        return [int(b) for b in bits]
    out = [int(b) for b in bits]
    if not out or any(b not in (0, 1) for b in out):
        raise InvalidParameterError("hidden string must be nonempty over {0,1}")
    return out


def _drain_and_pick(session, upcoming, queue, served):
    """Feed queued follow-ups as long as one tops the order; then return the
    algorithm's top fresh request."""
    while True:
        m = session.max_of(list(upcoming) + list(queue))
        if m in queue:
            session.feed(m)
            served.append(m)
            queue.remove(m)
        else:
            return m


def _guessing_game(algorithm, graph, blocks, hidden, block_opt, mode, zero_followups):
    """Play one round per hidden bit over the gadget ``blocks``.

    Each round the algorithm's top fresh request m is its guess (accept
    means 1).  A hidden 1 is answered with m's complement, the request of
    m's block that covers exactly the block edges m leaves free; a hidden
    0 with ``zero_followups`` of the set of the block's other requests.
    """
    block_of = {}
    complement = {}
    for i, block in enumerate(blocks, start=1):
        masks = {r: edge_mask(graph, r) for r in block}
        full = 0
        for mask in masks.values():
            full |= mask
        by_mask = {mask: r for r, mask in masks.items()}
        for r in block:
            block_of[r] = i
            complement[r] = by_mask[full ^ masks[r]]

    session = Session(algorithm, graph)
    upcoming = {r for blk in blocks for r in blk}
    queue = set()
    served = []
    meta = []
    for d in hidden:
        m = _drain_and_pick(session, upcoming, queue, served)
        i = block_of[m]
        upcoming -= set(blocks[i - 1])
        decision = session.feed(m)
        served.append(m)
        y = 1 if decision.accept else 0
        if d == 1:
            queue.add(complement[m])
        else:
            queue.update(zero_followups(set(blocks[i - 1]) - {m, complement[m]}))
        meta.append((i, m, y, d))
    assert not upcoming
    served.extend(session.drain(queue))

    sol = session.result().solution
    per_block = [0] * (len(blocks) + 1)
    for r in sol.accepted:
        w = 1 if mode == "count" else request_length(graph, r)
        per_block[block_of[r]] += w
    records = tuple(
        BlockRecord(k, m, y, d, y == d, per_block[k], block_opt)
        for (k, m, y, d) in meta
    )
    alg = gain(sol, mode)
    opt = block_opt * len(hidden)
    wrong = sum(1 for rec in records if not rec.correct)
    return GuessOutcome(Instance(graph, served), records, alg, opt, wrong, ratio(opt, alg), mode)


def run_guess(algorithm, bits):
    """Path gadget: block i holds requests [3i-3,3i-2], [3i-3,3i-1],
    [3i-2,3i], [3i-1,3i]; the first two complement the last two.

    A wrong guess caps the block at 2 of its 3 edges (exactly 2 for
    algorithms with greedy decisions), a right one yields all 3.
    """
    hidden = _parse_bits(bits)
    n = len(hidden)
    g = PathGraph(3 * n)
    blocks = []
    for i in range(1, n + 1):
        base = 3 * (i - 1)
        r1 = Request(g, base, base + 1)
        r2 = Request(g, base, base + 2)
        r3 = Request(g, base + 1, base + 3)
        r4 = Request(g, base + 2, base + 3)
        blocks.append((r1, r2, r3, r4))
    # a hidden 0 brings both requests that intersect m
    return _guessing_game(algorithm, g, blocks, hidden, 3, "length", lambda rest: rest)


def run_tguess(algorithm, tree, bits):
    """Tree gadget: each packed 4-star carries the six leaf pairs; a wrong
    guess caps the block at 1 call, a right one yields 2."""
    hidden = _parse_bits(bits)
    n = len(hidden)
    copies = pack_s4(tree)
    if len(copies) < n:
        raise InvalidTreeError(f"tree packs only {len(copies)} 4-stars, need {n}")
    blocks = []
    for center, leaves in copies[:n]:
        rs = tuple(
            Request(tree, a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]
        )
        blocks.append(rs)
    return _guessing_game(algorithm, tree, blocks, hidden, 2, "count", _first_disjoint_pair)


def _first_disjoint_pair(rest):
    """The lexicographically first pair of disjoint requests in ``rest``,
    the four leaf pairs of the star that intersect m."""
    rest = sorted(rest, key=lambda r: r.key)
    for a_i, a in enumerate(rest):
        for b in rest[a_i + 1:]:
            if not set(a.endpoints()) & set(b.endpoints()):
                return (a, b)


def fig9_tree(n):
    """Caterpillar with 2n degree-4 spine vertices: packs exactly n disjoint
    4-stars after pairing (sigma = n)."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError("need n >= 1")
    edges = [(i, i + 1) for i in range(2 * n + 1)]
    nxt = 2 * n + 2
    for i in range(1, 2 * n + 1):
        edges.append((i, nxt))
        edges.append((i, nxt + 1))
        nxt += 2
    return TreeGraph(edges)
