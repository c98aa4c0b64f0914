"""sha256 of ``convex-cert`` output for seeded path systems, recorded while
``oneplanar.geometry`` still computed in ``Fraction`` arithmetic: exact
integer geometry must not change a byte of any certificate."""

from __future__ import annotations

import hashlib
import random

import pytest

from oneplanar.cli import main
from oneplanar.graph import Graph

from conftest import cycle_graph, theta_graph
from test_acceptance import _random_path_system


def path_system(seed: int, f: int, groups: int) -> Graph:
    """f degree-2 paths of lengths f-1 to f+2 between ``groups`` pairs of
    branch vertices."""
    rng = random.Random(seed)
    pairs = []
    nxt = 2 * groups
    for grp in range(groups):
        u, v = 2 * grp, 2 * grp + 1
        for _ in range(f // groups):
            length = f - 1 + rng.randint(0, 3)
            chain = [u] + list(range(nxt, nxt + length - 1)) + [v]
            nxt += length - 1
            pairs.extend(zip(chain, chain[1:]))
    return Graph.build(pairs)


CASES = {
    "theta-2-2-2": lambda: theta_graph((2, 2, 2)),
    "theta-2-3-4": lambda: theta_graph((2, 3, 4)),
    "cycle-6": lambda: cycle_graph(6),
    **{f"criterion10/{seed}": (
        lambda seed=seed: _random_path_system(random.Random(seed)))
       for seed in range(6)},
    **{f"system/f{f}x{groups}/{seed}": (
        lambda seed=seed, f=f, groups=groups: path_system(seed, f, groups))
       for seed, (f, groups) in enumerate([(8, 1), (9, 1), (10, 2), (11, 1)])},
}


def digest(name: str, tmp_path) -> str:
    g = CASES[name]()
    edges = tmp_path / "in.edges"
    edges.write_text("".join(f"{u} {v}\n" for u, v in g.edges.values()))
    out = tmp_path / "coords.txt"
    assert main(["convex-cert", "--in", str(edges), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


DIGESTS = {
    "criterion10/0":
        "dfa9996b4f9e1574c0f5a7c11a31e5ba9a1c38ee8543b0730ef2197ebdeaece6",
    "criterion10/1":
        "7796a59a5dfafa6fe2e4937096c24d71acc3672269df133993e64d254d402ee3",
    "criterion10/2":
        "8a2e382cc39da108a56ef75c49ffbacdc92e5e8c090e1d5c3b5b84a9f04e162d",
    "criterion10/3":
        "d7b690983e36e1eacc6474217e9791826c4b6624121448e212c009cba2fc6f04",
    "criterion10/4":
        "44dd909c6fda6b9fd9aba412e625d135cfb3f253e0f9ee39e14d1310eec5befe",
    "criterion10/5":
        "9ac0f94dd0adc22dccc0f0703c8fbbcbaa439f7485287b885a6ed400624812b6",
    "cycle-6":
        "c7fa7d9db6c279f204cd69891f054b9d1f67c06f2931cbd49d523c999359ed7c",
    "system/f10x2/2":
        "db6e2bb3948ede34faf821715e28b858375b2b7acfded1906089141dfda1eb02",
    "system/f11x1/3":
        "85f8681e8f52883c8c98697d1f23f4a46ed514ee1de99640e0fc2a21e3d087a5",
    "system/f8x1/0":
        "6420cfb3bc1ceae57b48239d59f3d85ebf713cee8a8841e9b97ab6327a2780d9",
    "system/f9x1/1":
        "1acaa7d9d65f1e551cb13717439cb9c69b67f43dc469378cf211e356668abcb3",
    "theta-2-2-2":
        "cb2b125485530e7a25b92e5fac1eff28b4dad9953970ada34269bf50d3d80521",
    "theta-2-3-4":
        "d2e814a427d9098c381a3a99fecf4d34b10e555de2ce0f28573168c41754fa9b",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_convex_cert_is_byte_identical(name, tmp_path):
    assert digest(name, tmp_path) == DIGESTS[name]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)
