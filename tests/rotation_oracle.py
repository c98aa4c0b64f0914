"""Reference implementation for ``tests/test_planarity_decider.py``: the
per-component loop of ``oneplanar.decider`` before the planarity test took
over.  It enumerates every rotation system of every crossing assignment, in
product order, and takes the first embedding with an acceptable outer face.
It returns ``(answer, witness, embeddings_enumerated)``."""

from __future__ import annotations

import dataclasses
from typing import Optional

from oneplanar.decider import (
    CapExceeded,
    Predicate,
    _accepted_outer,
    _system_iter,
    density_excludes,
    enumerate_crossing_sets,
)
from oneplanar.embedding import PlaneEmbedding, validate_embedding
from oneplanar.graph import Graph


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
        for emb in _system_iter(g, assignment):
            count += 1
            outer = _accepted_outer(emb, pred)
            if outer is None:
                continue
            witness = None
            if want_witness:
                witness = dataclasses.replace(
                    emb, outer=emb.planarization.faces[outer][0])
                validate_embedding(witness, k=pred.k)
            return (True, witness, count)
    return (False, None, count)
