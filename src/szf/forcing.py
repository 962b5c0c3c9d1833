"""Skew zero forcing: simultaneous-round propagation with auditable traces.

The color-change rule: any vertex, blue or white, with exactly one white
neighbor colors that neighbor blue. A round applies every force that is
eligible against the start-of-round coloring, all at once. The fact that
a white vertex may force is what separates this rule from standard zero
forcing (and is why rK2 colors itself from an empty initial set).
"""

from typing import NamedTuple

from .graph import Graph, _ball, leaves

__all__ = [
    "OUTCOME_COMPLETED",
    "OUTCOME_STALLED",
    "Coloring",
    "ForceEvent",
    "PropagationTrace",
    "eligible_forces",
    "step",
    "propagate",
    "is_skew_forcing_set",
    "verify_ball_cover",
]

OUTCOME_COMPLETED = "completed"
OUTCOME_STALLED = "stalled"


class Coloring(NamedTuple):
    """The set of currently blue vertices; everything else is white."""

    blue: frozenset[int] = frozenset()

    @classmethod
    def of(cls, vertices) -> "Coloring":
        return cls(frozenset(vertices))


class ForceEvent(NamedTuple):
    """A single force: `forcer` colored `forced` during round `round`."""

    forcer: int
    forced: int
    round: int


class PropagationTrace(NamedTuple):
    """Full record of one propagation run.

    `rounds[t]` holds every force event of round t+1, including multiple
    forcers of the same target; the target is colored once. `pt` is the
    number of productive rounds when the run completed, and None when it
    stalled (a stalled run has no meaningful propagation time).
    """

    initial: Coloring
    rounds: tuple[tuple[ForceEvent, ...], ...]
    outcome: str
    final_blue: frozenset[int]

    @property
    def completed(self) -> bool:
        return self.outcome == OUTCOME_COMPLETED

    @property
    def pt(self) -> int | None:
        return len(self.rounds) if self.completed else None

    def events(self):
        for round_events in self.rounds:
            yield from round_events

    def to_lines(self) -> list[str]:
        """Line-delimited export: 'round forcer forced' per event, then a summary."""
        lines = [f"{e.round} {e.forcer} {e.forced}" for e in self.events()]
        if self.completed:
            lines.append(f"completed pt={self.pt}")
        else:
            lines.append(f"stalled blue={len(self.final_blue)}")
        return lines


def _check_subset(g, blue):
    for v in blue:
        if not 0 <= v < g.n:
            raise ValueError(f"blue vertex {v} out of range")


def eligible_forces(g: Graph, coloring: Coloring) -> frozenset[tuple[int, int]]:
    """All (forcer, forced) pairs eligible under the skew rule.

    A pair (u, w) qualifies when w is the unique neighbor of u outside the
    blue set. u itself may be white; a vertex with no white neighbor
    contributes nothing.
    """
    blue = coloring.blue
    _check_subset(g, blue)
    out = []
    for u in range(g.n):
        white_nbrs = g.adj[u] - blue
        if len(white_nbrs) == 1:
            (w,) = white_nbrs
            out.append((u, w))
    return frozenset(out)


def step(g: Graph, coloring: Coloring, round_no: int = 1):
    """Apply one simultaneous round from `coloring`.

    Returns the new coloring and the tuple of force events, sorted by
    (forcer, forced) for reproducibility. Eligibility is judged against
    the start-of-round coloring only.
    """
    pairs = sorted(eligible_forces(g, coloring))
    events = tuple(ForceEvent(u, w, round_no) for u, w in pairs)
    new_blue = coloring.blue | {w for _, w in pairs}
    return Coloring(new_blue), events


def propagate(g: Graph, initial) -> PropagationTrace:
    """Run rounds from the initial blue set until completion or stall."""
    blue = frozenset(initial)
    _check_subset(g, blue)
    start = Coloring(blue)
    rounds = []
    coloring = start
    while True:
        if len(coloring.blue) == g.n:
            return PropagationTrace(start, tuple(rounds), OUTCOME_COMPLETED, coloring.blue)
        coloring_next, events = step(g, coloring, round_no=len(rounds) + 1)
        if not events:
            return PropagationTrace(start, tuple(rounds), OUTCOME_STALLED, coloring.blue)
        rounds.append(events)
        coloring = coloring_next


def is_skew_forcing_set(g: Graph, initial) -> bool:
    """True iff propagation from `initial` colors every vertex."""
    return propagate(g, initial).completed


def verify_ball_cover(g: Graph, initial, trace: PropagationTrace) -> bool:
    """Check that balls of radius 2*pt around leaves and initial vertices cover g.

    This is a theorem for every completed propagation, so a False return
    signals an engine bug rather than a property of the input.
    """
    if not trace.completed:
        raise ValueError("ball cover is only defined for completed traces")
    _check_subset(g, initial)
    centers = sum(1 << c for c in leaves(g) | frozenset(initial))
    return _ball(g.bit_adjacency, centers, 2 * trace.pt) == (1 << g.n) - 1


def _ball_cover_bound(g: Graph) -> int:
    """A lower bound on th(g) from the ball cover of `verify_ball_cover`.

    When S completes with pt(S) = t, the radius-2t balls around S and the
    leaves cover g. A ball of radius 2t holds at most one vertex of a set P
    whose vertices are pairwise more than 4t apart, so |S| >= |P| - |leaves|.
    The bound is the least t + max(|P| - |leaves|, 0) over t, with P packed
    greedily in id order; no t at or above the least value found can lower it.
    """
    rows, spare, best, t = g.bit_adjacency, len(leaves(g)), g.n, 0
    while t < best:
        uncovered, packed = (1 << g.n) - 1, 0
        while uncovered:
            packed += 1
            uncovered &= ~_ball(rows, uncovered & -uncovered, 4 * t)
        best = min(best, t + max(packed - spare, 0))
        t += 1
    return best
