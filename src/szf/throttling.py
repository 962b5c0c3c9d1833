"""Exact skew zero forcing number, propagation time, and throttling search.

The search enumerates initial sets by size k ascending and, within a size,
in lexicographic order of the sorted id vector; the first optimum in that
order is the canonical witness. Subsets are propagated in bit-sliced
batches (Biham, "A fast new DES implementation in software", FSE 1997) that
pack runs "prefix + every t-subset of s..n-1" side by side; a node too wide
for one batch splits in two, the subsets with s and then those without it.
A batch is one contiguous range of that order, so its first optimum is the
lowest lane completing in its first completing round. The kernel,
`_first_completion`, stops at that round and returns it with the lanes that
complete in it, or None when the batch stalls or runs out of its round
budget first. A vertex of degree 1 or 2 reads "exactly one white neighbour"
from one word or one XOR; higher degrees use a saturating count.

One generator, `_hits`, walks the batches of one size within a round
limit and yields each set that beats every earlier one: each batch after a
hit is budgeted to beat it, and its hit is its first optimum. The Z-
descent reads its first hit, and the reduction `_least` its last, the
first optimum of the size in that order. A limit of n - k cuts nothing at
size k: a lane still forcing at round r has k + r blue vertices or more,
so by round n - k every lane has completed or stalled. Before its first
batch, `_hits` reads one floor on the propagation time of size k, and packs
no batch once its limit is below it. A vertex that forces in a round
forces one vertex and has deg - 1 distinct blue neighbours, so its deg - 1
is at most the number of blue vertices, and the round's forcers, one per
forced vertex, have a total deg - 1 of at most the degree sum of the blue
vertices. With s_0 = k, at most s_{r+1} = s_r + m(s_r) vertices are blue
after round r + 1, where m(s) is the most vertices, least deg - 1 first and
each of deg - 1 <= s, whose deg - 1 sum to at most the sum of the s
largest degrees; s + m(s) does not fall as s grows, so the bound carries
from round to round. The least t with s_t >= n is the floor. When s stops
below n no size-k set forces, and the floor is n - k + 1, one round more
than any size-k forcing set takes. So it is for every k < δ(G) - 1, as no
vertex then forces in round 1. A hit at the floor ends the scan, as no
later set can beat it; for k < n the floor is at least 1, and size n is
one batch of one lane.

Z-(G) is found by descent, not by an ascending scan. Skew forcing is
monotone: if S is a subset of T, every vertex blue after round r from S is
blue after round r from T, so every superset of a forcing set forces, and a
size with no forcing set has none below it either. A greedy on bit masks
gives a forcing set, pruned to a minimal one; its size is the first bound k.
While k > 0 and some set of size k - 1 forces (the first hit of `_hits`
within n - k + 1 rounds), that set is pruned in turn and k falls to its
size. So only size Z- - 1 is found empty, with no batch where its floor
proves it. skew_zero_forcing_number stops there, and min_propagation_time
after `_least` at Z-(G) within n - Z- rounds. throttle is one loop over
sizes k from Z-(G) while k is below the best value, budgeting size k to
best - k rounds; the first best is n + 1 (V forces in 0 rounds, so
th <= n). The least time at Z- is pt_minimum. Sizes that tie the best
still count in per_k, while only a smaller value replaces the witness.
"""

from math import comb
from typing import NamedTuple

from .graph import Graph

__all__ = [
    "ThrottleResult",
    "skew_zero_forcing_number",
    "min_propagation_time",
    "throttling_at_k",
    "throttle",
    "throttle_with_bound",
]

LANE_CAP = 1 << 14  # most lanes in one batch: bounds the width of each integer


class ThrottleResult(NamedTuple):
    """Optimal throttling data with a canonical witness.

    per_k maps k to the optimal |S| + pt over sets of size k for every k
    at which the global optimum is attained; sizes whose best value
    exceeds the optimum are not certified by the pruned search and are
    omitted.
    """

    th: int
    witness: frozenset[int]
    k: int
    pt: int
    per_k: dict[int, int]
    z_minus: int
    pt_minimum: int

    def to_json_dict(self) -> dict:
        return {
            "th": self.th,
            "k": self.k,
            "pt": self.pt,
            "witness": sorted(self.witness),
            "per_k": {str(k): v for k, v in sorted(self.per_k.items())},
            "z_minus": self.z_minus,
            "pt_minimum": self.pt_minimum,
        }


def _first_completion(adj, blue, full, budget):
    """Propagate every lane of a batch at once, up to its first completion.

    adj[v] iterates the neighbours of v; blue[v] has lane i set when v is
    blue in subset i, and full has every lane set. Returns (round, lanes)
    for the first round, round 0 included, in which some lanes are entirely
    blue, or None when no lane makes progress, or when `budget` productive
    rounds pass without a completion. The caller's blue list is not modified.

    A round reads the lanes where a vertex has exactly one white neighbour
    as that neighbour's white word at degree 1, the XOR of the two at
    degree 2, and a saturating count from degree 3 up; a vertex with no
    white lane is not visited.
    """
    blue = list(blue)
    done = full
    for b in blue:
        done &= b
    rounds = 0
    while not done:
        if rounds >= budget:
            return None
        white = [full ^ b for b in blue]
        exactly_one = []
        for nb in adj:
            if len(nb) == 2:
                a, b = nb
                exactly_one.append(white[a] ^ white[b])
            elif len(nb) > 2:
                # Saturating count of white neighbours: at least one, at least two.
                it = iter(nb)
                ones, twos = white[next(it)], 0
                for w in it:
                    x = white[w]
                    twos |= ones & x
                    ones |= x
                exactly_one.append(ones ^ twos)  # twos is a subset of ones
            else:  # degree 1 or 0
                exactly_one.append(white[next(iter(nb))] if nb else 0)
        stalled = True
        done = full
        for v, nb in enumerate(adj):
            if not (w := white[v]):
                continue
            it = iter(nb)
            hit = exactly_one[next(it)] if nb else 0
            for u in it:
                hit |= exactly_one[u]
            if forced := w & hit:
                blue[v] |= forced
                stalled = False
            done &= blue[v]
        if stalled:
            return None
        rounds += 1
    return rounds, done


_WORDS = {}  # (m, t) -> W(m, t), shared by every solve; each entry is set once


def _lane_words(m, t):
    """W(m, t), the per-vertex lane words of the t-subsets of range(m): those
    holding vertex 0 first, W(m - 1, t - 1), then the rest, W(m - 1, t). Fills
    the missing W(d + u, u), u <= t, d <= m - t, row by row, not recursively;
    none has more lanes than W(m, t)."""
    if (m, t) in _WORDS:
        return _WORDS[m, t]
    for u in range(t + 1):
        for d in range(m - t + 1):
            if (d + u, u) in _WORDS:
                continue
            if d and u:
                first = comb(d + u - 1, u - 1)
                words = ((1 << first) - 1,) + tuple(a | b << first for a, b in zip(
                    _WORDS[d + u - 1, u - 1], _WORDS[d + u - 1, u]))
            else:  # one lane: everything (d = 0) or nothing (u = 0)
                words = (int(d == 0),) * (d + u)
            _WORDS.setdefault((d + u, u), words)
    return _WORDS[m, t]


def _batches(n, k):
    """The size-k subsets of range(n) as (per-vertex words, width) batches in
    lexicographic order. A node "prefix + every t-subset of s..n-1" with more
    than LANE_CAP lanes splits in two: the subsets holding s, then those
    without it. A run is a first node with at most LANE_CAP lanes, packed
    from one lane word table entry; a batch packs consecutive runs up to
    LANE_CAP lanes."""
    blue, width = [0] * n, 0
    stack = [((), 0, k)]  # (prefix, s, t); children go on last-first
    while stack:
        prefix, s, t = stack.pop()
        lanes = comb(n - s, t)
        if lanes > LANE_CAP:
            stack += [(prefix, s + 1, t), (prefix + (s,), s + 1, t - 1)]
            continue
        if width + lanes > LANE_CAP:
            yield blue, width
            blue, width = [0] * n, 0
        for v in prefix:
            blue[v] |= ((1 << lanes) - 1) << width
        for v, w in enumerate(_lane_words(n - s, t), s):
            blue[v] |= w << width
        width += lanes
    yield blue, width


def _pt_floor(g, k):
    """A lower bound on the propagation time of every size-k forcing set:
    the least t with s_t >= n, where s_0 = k and s_{r+1} is s_r plus the
    most vertices, least deg - 1 first and each of deg - 1 <= s_r, whose
    deg - 1 sum to at most the sum of the s_r largest degrees. When s stops
    below n, no size-k set forces, and the bound is n - k + 1, one round
    more than any size-k forcing set could take."""
    degrees = sorted(map(len, g.adj), reverse=True)
    costs = [d - 1 for d in reversed(degrees) if d]  # an isolated vertex never forces
    s, t, reach, spent, m = k, 0, sum(degrees[:k]), 0, 0
    while s < g.n:
        # s and reach only grow, so the count m of the least costs that fit does too.
        while m < len(costs) and costs[m] <= s and spent + costs[m] <= reach:
            spent += costs[m]
            m += 1
        if not m:
            return g.n - k + 1
        reach += sum(degrees[s:s + m])
        s, t = s + m, t + 1
    return t


def _hits(g, k, limit):
    """(pt, subset) for each size-k set, in lexicographic order, that takes
    fewer rounds than every earlier one and at most `limit` rounds.

    A batch's first such set is its lowest lane completing in its first
    completing round; each batch after a hit is budgeted to beat it. No
    size-k set completes in fewer than `_pt_floor(g, k)` rounds, so no batch
    is packed once the limit is below the floor."""
    floor = _pt_floor(g, k)
    batches = _batches(g.n, k)
    while limit >= floor and (batch := next(batches, None)):
        blue, width = batch
        if hit := _first_completion(g.adj, blue, (1 << width) - 1, limit):
            pt, lanes = hit
            lane = (lanes & -lanes).bit_length() - 1
            yield pt, frozenset(v for v, b in enumerate(blue) if b >> lane & 1)
            limit = pt - 1


def _least(g, k, limit):
    """(pt, subset) for the first size-k set in lexicographic order with the
    least propagation time within `limit` rounds, or None: the last hit."""
    least = None
    for least in _hits(g, k, limit):
        pass
    return least


def _closure(rows, blue):
    """The blue mask where skew forcing from the mask `blue` stops: in each
    round, every row whose white part is one bit forces that bit."""
    full = (1 << len(rows)) - 1
    while white := full ^ blue:
        forced = 0
        for row in rows:
            if not (w := row & white) & (w - 1):  # no bit or one bit
                forced |= w
        if not forced:
            break
        blue |= forced
    return blue


def _pruned(rows, chosen, kept=0):
    """The forcing mask `chosen` less each vertex, lowest first, whose removal
    still leaves a forcing set. The vertices of the mask `kept` are known to
    stay and are not tested."""
    full = (1 << len(rows)) - 1
    for v in range(len(rows)):
        if (chosen & ~kept) >> v & 1 and _closure(rows, chosen ^ 1 << v) == full:
            chosen ^= 1 << v
    return chosen


def _greedy(g):
    """A forcing set as a bit mask: add the white vertex with the most white
    neighbours, lowest id on ties, until the closure is full, then prune.
    Growing from the last closure is exact: the final blue set of S + v is
    that of closure(S) + v. The last vertex added is never pruned: the
    others did not force before it came, and pruning only shrinks them."""
    rows, full = g.bit_adjacency, (1 << g.n) - 1
    chosen, last, blue = 0, 0, _closure(rows, 0)
    while white := full ^ blue:
        most = -1
        for u, row in enumerate(rows):
            if white >> u & 1 and (c := (row & white).bit_count()) > most:
                most, last = c, 1 << u
        chosen |= last
        blue = _closure(rows, blue | last)
    return _pruned(rows, chosen, last)


def skew_zero_forcing_number(g: Graph) -> int:
    """Least k such that some size-k set forces the whole graph; may be 0.

    Found by descent from the greedy bound: while some set one smaller
    forces, prune it to the new bound. Only the last test, at Z- - 1, can
    scan a size in full, and none does where the floor of `_hits` proves
    that size empty."""
    k = _greedy(g).bit_count()
    while k and (hit := next(_hits(g, k - 1, g.n - k + 1), None)):
        k = _pruned(g.bit_adjacency, sum(1 << v for v in hit[1])).bit_count()
    return k


def min_propagation_time(g: Graph) -> int:
    """Minimum propagation time over minimum skew forcing sets."""
    z = skew_zero_forcing_number(g)
    return _least(g, z, g.n - z)[0]


def throttling_at_k(g: Graph, k: int) -> int | None:
    """Optimal |S| + pt over skew forcing sets of size exactly k.

    Returns None when no size-k forcing set exists.
    """
    if not 0 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    hit = _least(g, k, g.n - k)
    return None if hit is None else k + hit[0]


def throttle(g: Graph) -> ThrottleResult:
    """Globally optimal skew throttling with the canonical witness."""
    z = skew_zero_forcing_number(g)
    best, per_k = g.n + 1, {}
    k = z
    while k < best:
        if hit := _least(g, k, best - k):
            pt, subset = hit
            per_k[k] = k + pt
            if k + pt < best:
                best, witness = k + pt, subset
        k += 1

    kw = len(witness)
    return ThrottleResult(
        th=best, witness=witness, k=kw, pt=best - kw,
        per_k={k: v for k, v in per_k.items() if v == best},
        z_minus=z, pt_minimum=per_k[z] - z,
    )


def throttle_with_bound(g: Graph, upper: int) -> ThrottleResult:
    """throttle(g), checked against a claimed upper bound on th(g).

    The bound does not change the search or its result; a bound below the
    optimum raises ValueError.
    """
    if upper < 0:
        raise ValueError("bound must be nonnegative")
    result = throttle(g)
    if upper < result.th:
        raise ValueError(f"no skew forcing set found with |S| + pt <= {upper}; "
                         "the supplied bound is below the optimum")
    return result
