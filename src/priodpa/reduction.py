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

A game returns an ``engine.AdversaryOutcome`` with one BlockRecord per
round, and its ``passed`` checks each block against the cap above.

The gadget requests are fixed before the game starts, so a game is one
``Session.drain`` of all of them: each round's answer withdraws the
block's requests that are not follow-ups, and the drain ranks the live
requests once per order object the algorithm puts in force.  A game
costs O(N log N) for N gadget requests under a fixed order, not a search
of all that is left in every round.

The gadget does not depend on the algorithm, so it is built once and kept
in a one-entry cache: ``run_guess`` keys its cache by the number of bits,
``run_tguess`` by the identity of the tree (``is``, not ``==``: an equal
but distinct tree gets requests of its own).  A gadget holds its requests,
each one's gain and, for each request and hidden bit, the requests the
answer withdraws.  A battery played on one bit count or one tree builds
its gadget once; the cache keeps the last host and its requests alive
until a game on another bit count or tree replaces them.  The cache is a
module global, not an attribute of the tree, because a tree that held
its own requests would sit on the cycle tree -> requests -> tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log2

from .graphs import (
    Instance,
    InvalidParameterError,
    InvalidTreeError,
    PathGraph,
    Request,
    TreeGraph,
    gain,
    ratio,
)
from .engine import AdversaryOutcome, Session
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


@dataclass(slots=True, unsafe_hash=True)
class BlockRecord:
    block: int
    m: object
    guess: int
    hidden: int
    correct: bool
    alg_gain: int
    opt_gain: int


def _parse_bits(bits):
    if isinstance(bits, str):
        if not bits or any(b not in "01" for b in bits):
            raise InvalidParameterError("hidden string must be nonempty over {0,1}")
        return [int(b) for b in bits]
    out = [int(b) for b in bits]
    if not out or any(b not in (0, 1) for b in out):
        raise InvalidParameterError("hidden string must be nonempty over {0,1}")
    return out


def _gadget(graph, universe, size, block_opt, mode, zero_followups):
    """What every game on one host reads off its gadget requests
    ``universe``, in blocks of ``size`` (block b holds the requests
    numbered b*size .. b*size + size - 1): the tuple ``(graph, size,
    universe, gains, withdrawn, block_opt, mode)``, where ``gains[i]`` is
    request i's gain under ``mode``, ``withdrawn[d][i]`` the indices of its
    block that the answer to a top request i withdraws when the hidden bit
    is d, and a right guess gains ``block_opt`` in a block.

    A hidden 1 is answered with m's complement, the request of m's block
    that covers exactly the block edges m leaves free; a hidden 0 with
    ``zero_followups(rest, masks)``, indices taken from the block's other
    requests ``rest`` given the edge masks of all requests.
    """
    masks = [r.mask for r in universe]
    gains = tuple(1 if mode == "count" else m.bit_count() for m in masks)
    withdrawn = ([], [])
    for start in range(0, len(universe), size):
        block = range(start, start + size)
        full = 0
        for i in block:
            full |= masks[i]
        by_mask = {masks[i]: i for i in block}
        for i in block:
            c = by_mask[full ^ masks[i]]
            zero = set(zero_followups([j for j in block if j not in (i, c)], masks))
            withdrawn[0].append(tuple(j for j in block if j not in zero))
            withdrawn[1].append(tuple(j for j in block if j != c))
    withdrawn = (tuple(withdrawn[0]), tuple(withdrawn[1]))
    return graph, size, tuple(universe), gains, withdrawn, block_opt, mode


def _guessing_game(algorithm, gadget, hidden):
    """Play one round per hidden bit over the first ``len(hidden)`` blocks
    of ``gadget``.

    Each round the algorithm's top fresh request m is its guess (accept
    means 1), and queued follow-ups on top of the order are fed before it;
    the answer withdraws the requests of m's block that do not follow up
    the hidden bit.
    """
    graph, s, universe, gains, withdrawn, block_opt, mode = gadget
    n = len(hidden)
    played = [False] * n
    per_block = [0] * n
    meta = []

    def answer(i, decision):
        b = i // s
        if decision.accept:
            per_block[b] += gains[i]
        if played[b]:
            return ()  # a queued follow-up
        played[b] = True
        d = hidden[len(meta)]
        meta.append((b, universe[i], 1 if decision.accept else 0, d))
        return withdrawn[d][i]

    session = Session(algorithm, graph)
    served = session.drain(universe[:n * s], answer)
    records = tuple(
        BlockRecord(b + 1, m, y, d, y == d, per_block[b], block_opt) for (b, m, y, d) in meta
    )
    alg, opt = gain(session.result().solution, mode), block_opt * n
    return AdversaryOutcome(Instance(graph, served), ratio(opt, alg), None, alg, opt, None, records)


def run_guess(algorithm, bits):
    """Path gadget: block i holds requests [3i-3,3i-2], [3i-3,3i-1],
    [3i-2,3i], [3i-1,3i]; the first two complement the last two.

    A wrong guess caps the block at 2 of its 3 edges (exactly 2 for
    algorithms with greedy decisions), a right one yields all 3.
    """
    hidden = _parse_bits(bits)
    return _guessing_game(algorithm, _path_gadget(len(hidden)), hidden)


@lru_cache(maxsize=1)
def _path_gadget(n):
    """The gadget of ``run_guess`` on n bits, over ``PathGraph(3n)``."""
    g = PathGraph(3 * n)
    universe = []
    for base in range(0, 3 * n, 3):
        universe += (Request(g, base, base + 1), Request(g, base, base + 2),
                     Request(g, base + 1, base + 3), Request(g, base + 2, base + 3))
    # a hidden 0 brings both requests that intersect m
    return _gadget(g, universe, 4, 3, "length", lambda rest, masks: rest)


def run_tguess(algorithm, tree, bits):
    """Tree gadget: each packed 4-star carries the six leaf pairs; a wrong
    guess caps the block at 1 call, a right one yields 2.  The star count
    is read off the gadget, six requests per star."""
    hidden = _parse_bits(bits)
    gadget = _star_gadget(tree)
    n, stars = len(hidden), len(gadget[2]) // 6
    if stars < n:
        raise InvalidTreeError(f"tree packs only {stars} 4-stars, need {n}")
    return _guessing_game(algorithm, gadget, hidden)


_last_star_gadget = (None, None)  # the last tree of run_tguess and its gadget


def _star_gadget(tree):
    """The gadget of ``run_tguess`` over every star of ``pack_s4(tree)``,
    kept for the next game if that is played on the same tree object; an
    equal but distinct tree gets requests of its own."""
    global _last_star_gadget
    last, gadget = _last_star_gadget
    if last is not tree:
        universe = [Request(tree, a, b) for _, leaves in pack_s4(tree)
                    for i, a in enumerate(leaves) for b in leaves[i + 1:]]
        gadget = _gadget(tree, universe, 6, 2, "count", _first_disjoint_pair)
        _last_star_gadget = tree, gadget
    return gadget


def _first_disjoint_pair(rest, masks):
    """The first pair of edge-disjoint requests in ``rest``, the four leaf
    pairs of the star that intersect m: a star's leaf pairs are numbered
    in lexicographic order, and two of them share an edge exactly when
    they share a leaf."""
    for a_i, a in enumerate(rest):
        for b in rest[a_i + 1:]:
            if not masks[a] & masks[b]:
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
