"""Detection of B- and W-configurations in 1-planar embeddings and the
clockwise L*[M]R* word test.

A B-configuration is an edge ab plus an (a,b)-crossing pair whose far
endpoints a', b' both lie on the bounded side of the closed curve formed by
the two half-strands and ab.  A W-configuration is two (a,b)-crossing pairs
whose four far endpoints all lie on the bounded side of the 4-strand curve.
An embedding with a designated outer face can be straightened (redrawn with
the same rotations using straight segments) iff it has neither.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .embedding import PlaneEmbedding, crossing_orientation
from .graph import GraphError


@dataclass(frozen=True)
class BWConfiguration:
    """A potential B/W configuration; whether it is one depends on the
    outer face (``is_configuration``)."""

    kind: str  # "B" or "W"
    anchors: tuple[int, int]
    crossings: tuple[int, ...]  # crossing indices into emb.crossings
    side_of_face: tuple[int, ...]  # face -> its side of the closed curve
    far_side: Optional[int]  # side holding all far endpoints, if uniform

    def is_configuration(self, outer_face: int) -> bool:
        """True when the far endpoints all lie on the bounded side, i.e. this
        is a B/W configuration for this outer face."""
        return (self.far_side is not None
                and self.far_side != self.side_of_face[outer_face])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "anchors": list(self.anchors),
            "crossings": list(self.crossings),
        }


@dataclass(frozen=True)
class LMRWord:
    word: str
    start: tuple[int, int, int]  # first dart after the outer region at a

    def matches_pattern(self) -> bool:
        """True iff the word is of the form L*[M]R*."""
        return re.fullmatch(r"L*M?R*", self.word) is not None

    def bad_subwords(self) -> list[str]:
        """The failing (not necessarily contiguous) length-2 subwords among
        RL, RM, ML present in the word."""
        out = []
        for x, y in ("RL", "RM", "ML"):
            ix = self.word.find(x)
            if ix != -1 and y in self.word[ix + 1:]:
                out.append(x + y)
        return out


def _require_one_planar(emb: PlaneEmbedding) -> None:
    for e in emb.graph.edges:
        if emb.crossings_of_edge(e) > 1:
            raise GraphError("B/W detection requires a 1-planar embedding")
    if len(emb.planarization.components) > 1:
        raise GraphError("B/W detection requires a connected planarization")


def _vertex_side(emb: PlaneEmbedding, color: list[int], v: int) -> int:
    plan = emb.planarization
    return color[plan.face_of[plan.rotation[v][0]]]


def _make_candidate(emb: PlaneEmbedding, kind: str, anchors, crossings,
                    cycle_segments: set[int], fars: Iterable[int]
                    ) -> Optional[BWConfiguration]:
    color = emb.planarization.side_partition(cycle_segments)
    if color is None:
        return None
    sides = {_vertex_side(emb, color, v) for v in fars}
    far = sides.pop() if len(sides) == 1 else None
    return BWConfiguration(kind, tuple(anchors), tuple(crossings),
                           tuple(color), far)


def candidate_configurations(emb: PlaneEmbedding) -> list[BWConfiguration]:
    """All potential B/W configurations with their face-side data; which are
    actual configurations depends on the choice of outer face."""
    _require_one_planar(emb)
    g = emb.graph
    out: list[BWConfiguration] = []

    for i, c in enumerate(emb.crossings):
        e1, e2 = c.edges
        for a in g.edges[e1]:
            for b in g.edges[e2]:
                ab = g.edge_between(a, b)
                if ab is None:
                    continue
                cyc = {emb.strand(e1, a, c.dummy),
                       emb.strand(e2, b, c.dummy),
                       *emb.edge_segments(ab)}
                fars = (g.other_end(e1, a), g.other_end(e2, b))
                cand = _make_candidate(emb, "B", (a, b), (i,), cyc, fars)
                if cand is not None:
                    out.append(cand)

    for i in range(len(emb.crossings)):
        for j in range(i + 1, len(emb.crossings)):
            c1, c2 = emb.crossings[i], emb.crossings[j]
            (p, q), (r, s) = c1.edges, c2.edges
            for x1, y1, x2, y2 in ((p, r, q, s), (p, s, q, r)):
                a_set = set(g.edges[x1]) & set(g.edges[y1])
                b_set = set(g.edges[x2]) & set(g.edges[y2])
                if not a_set or not b_set:
                    continue
                (a,), (b,) = a_set, b_set
                if a == b:
                    continue
                cyc = {emb.strand(x1, a, c1.dummy),
                       emb.strand(x2, b, c1.dummy),
                       emb.strand(y2, b, c2.dummy),
                       emb.strand(y1, a, c2.dummy)}
                fars = (g.other_end(x1, a), g.other_end(y1, a),
                        g.other_end(x2, b), g.other_end(y2, b))
                cand = _make_candidate(emb, "W", (a, b), (i, j), cyc, fars)
                if cand is not None:
                    out.append(cand)
    return out


def find_bw_configurations(emb: PlaneEmbedding) -> list[BWConfiguration]:
    """Exhaustive list of B- and W-configurations relative to the embedding's
    outer face; empty iff the embedding is straightenable."""
    outer = emb.outer_face
    return [c for c in candidate_configurations(emb)
            if c.is_configuration(outer)]


def is_straightenable(emb: PlaneEmbedding) -> bool:
    return not find_bw_configurations(emb)


# ---------------------------------------------------------------------------
# L*[M]R* words
# ---------------------------------------------------------------------------

def lmr_word(emb: PlaneEmbedding, a: int, b: int) -> LMRWord:
    """Clockwise word over {L, M, R} at vertex a, read from the first dart
    after the outer region.  The embedding must be a union of (a,b)-crossing
    pairs plus optionally the edge ab."""
    g = emb.graph
    ab = g.edge_between(a, b)
    crossed_with: dict[int, int] = {}
    for i, c in enumerate(emb.crossings):
        e1, e2 = c.edges
        if a in g.edges[e2] and b in g.edges[e1]:
            e1, e2 = e2, e1
        if a not in g.edges[e1] or b not in g.edges[e2]:
            raise GraphError(f"crossing {c.edges} is not an ({a},{b})-pair")
        crossed_with[e1] = i
    for e in g.edges:
        if e == ab:
            if emb.crossings_of_edge(e):
                raise GraphError("edge ab must be uncrossed")
            continue
        if a in g.edges[e]:
            if e not in crossed_with:
                raise GraphError(f"edge {e} at {a} is not part of a pair")
        elif b not in g.edges[e]:
            raise GraphError(f"edge {e} touches neither {a} nor {b}")

    plan = emb.planarization
    rot = plan.rotation[a]
    outer = emb.outer_face
    starts = [i for i, d in enumerate(rot) if plan.face_of[d] == outer]
    if not starts:
        raise GraphError(f"outer face does not touch {a}")
    start = starts[0]

    letters = []
    for i in range(len(rot)):
        e = emb.edge_of(rot[(start + i) % len(rot)])
        if e == ab:
            letters.append("M")
        else:
            side = crossing_orientation(emb, crossed_with[e], a, b)
            letters.append("L" if side == "left" else "R")
    return LMRWord("".join(letters), emb.int_to_dart(rot[start]))
