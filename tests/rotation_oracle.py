"""Reference implementations for the decider tests.

``system_iter`` is the rotation-system enumerator that face insertion
replaced in ``oneplanar.decider._system_iter``: it takes the full product
of the cyclic orders at every node of the planarization, with one mirror
image pinned at a pivot node, and keeps the products that trace to genus 0.
The new enumerator must yield the same rotation dicts in the same order.

``insertion_steps`` is ``oneplanar.decider._insertion_steps`` as it was
before its next node came from a heap: a ``max`` over every unplaced node
by ``(reach, -node)``.  The heap must give the same steps.

``decide_connected`` is the per-component loop of ``oneplanar.decider``
before the planarity test took over.  It enumerates every rotation system
of every crossing assignment, in product order, and takes the first
embedding with an acceptable outer face.  It returns ``(answer, witness,
embeddings_enumerated)``."""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Optional

from oneplanar.decider import (
    _ALTERNATE,
    _FREE,
    _NEW,
    CapExceeded,
    CrossingAssignment,
    DecideStats,
    Predicate,
    _accepted_outer,
    density_excludes,
    enumerate_crossing_sets,
)
from oneplanar.embedding import (
    PlaneEmbedding,
    Planarization,
    unrotated_embedding,
    validate_embedding,
)
from oneplanar.graph import Graph


def system_iter(g: Graph, assignment: CrossingAssignment
                ) -> Iterator[PlaneEmbedding]:
    """Yield one PlaneEmbedding per genus-0 rotation system with proper
    (alternating) crossings, up to reflection; the outer dart is a
    placeholder."""
    if not g.edges:
        return
    skeleton = unrotated_embedding(g, assignment.pairs, assignment.edge_order)
    plan = skeleton.planarization
    node_darts = plan.node_darts

    dummies = [c.dummy for c in skeleton.crossings]
    dummy_set = set(dummies)

    # candidate rotations per node: cyclic orders with the first dart pinned
    def real_candidates(darts: list[int]) -> list[tuple[int, ...]]:
        head, rest = darts[0], darts[1:]
        return [(head,) + p for p in itertools.permutations(rest)]

    def dummy_candidates(dummy: int) -> list[tuple[int, ...]]:
        by_edge: dict[int, list[int]] = {}
        for d in node_darts[dummy]:
            by_edge.setdefault(skeleton.edge_of(d), []).append(d)
        groups = sorted(by_edge.values())
        if len(groups) == 1:  # same pair crossing twice: split by instance
            (a1, a2, b1, b2) = sorted(groups[0])
            groups = [[a1, a2], [b1, b2]]
        (a1, a2), (b1, b2) = (sorted(gr) for gr in groups)
        return [(a1, b1, a2, b2), (a1, b2, a2, b1)]

    nodes = sorted(node_darts)
    pivot = None  # pinned to one of each mirror pair of its rotations
    eligible = [v for v in nodes
                if v not in dummy_set and len(node_darts[v]) >= 3]
    if eligible:
        pivot = max(eligible, key=lambda v: (len(node_darts[v]), -v))
    elif dummies:
        pivot = dummies[0]

    cand_lists: list[list[tuple[int, ...]]] = []
    for v in nodes:
        if v in dummy_set:
            cands = dummy_candidates(v)
            if v == pivot:
                cands = cands[:1]
        else:
            cands = real_candidates(node_darts[v])
            if v == pivot:
                cands = [c for c in cands if c[1:] <= c[1:][::-1]]
        cand_lists.append(cands)

    comps = len(plan.components)
    nd = plan.dart_count
    want_faces = 2 * comps - len(nodes) + len(plan.segments)
    if want_faces < comps:
        return
    succ = [0] * nd
    for combo in itertools.product(*cand_lists):
        for rot in combo:
            prev = rot[-1]
            for d in rot:
                succ[prev ^ 1] = d
                prev = d
        faces = 0
        unseen = bytearray(nd)
        for d0 in range(nd):
            if not unseen[d0]:
                faces += 1
                if faces > want_faces:
                    break
                d = d0
                while not unseen[d]:
                    unseen[d] = 1
                    d = succ[d]
        if faces != want_faces:
            continue
        yield dataclasses.replace(skeleton, rotation=dict(zip(nodes, combo)),
                                  outer=0)


def insertion_steps(plan: Planarization, dummies: set[int]
                    ) -> list[tuple[int, int, int, int, int]]:
    node_darts = plan.node_darts
    start = min(node_darts, key=lambda v: (-len(node_darts[v]), v))
    placed_darts: dict[int, list[int]] = {v: [] for v in node_darts}
    reach = dict.fromkeys(node_darts, 0)  # segments to placed nodes
    placed = {start}
    for d in node_darts[start]:
        reach[plan.target(d)] += 1
    steps: list[tuple[int, int, int, int, int]] = []
    pin = True
    while len(placed) < len(node_darts):
        w = max((v for v in node_darts if v not in placed),
                key=lambda v: (reach[v], -v))
        into = sorted((d ^ 1 for d in node_darts[w] if plan.target(d) in placed),
                      key=lambda d: (len(placed_darts[plan.origin(d)]), d))
        placed.add(w)
        for d in node_darts[w]:
            reach[plan.target(d)] += 1
        for d in into:
            step = [d, d ^ 1, 0, 0, -1]
            for end, x in enumerate((d, d ^ 1)):
                node = plan.origin(x)
                have = placed_darts[node]
                if not have:
                    step[2 + end] = _NEW
                elif len(have) == 3 and node in dummies:
                    step[2 + end] = _ALTERNATE
                else:
                    step[2 + end] = _FREE
                if pin and len(have) == 2:
                    step[4] = have[1]
                    pin = False
            for x in (d, d ^ 1):
                placed_darts[plan.origin(x)].append(x)
            steps.append(tuple(step))
    return steps


def decide_connected(g: Graph, pred: Predicate, cap: int,
                     want_witness: bool
                     ) -> tuple[bool, Optional[PlaneEmbedding], int]:
    if density_excludes(g, pred.geometric) and pred.k == 1:
        return (False, None, 0)
    if g.m > cap:
        raise CapExceeded(f"{g.m} edges exceeds decider cap {cap}")
    if g.m == 0:
        return (True, None, 0)

    count = 0
    for assignment in enumerate_crossing_sets(g, pred.k):
        for emb in system_iter(g, assignment):
            count += 1
            outer = _accepted_outer(emb, pred, DecideStats())
            if outer is None:
                continue
            witness = None
            if want_witness:
                witness = dataclasses.replace(
                    emb, outer=emb.planarization.faces[outer][0])
                validate_embedding(witness, k=pred.k)
            return (True, witness, count)
    return (False, None, count)
