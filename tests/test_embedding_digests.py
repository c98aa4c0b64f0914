"""sha256 of ``embedding_to_json`` for embeddings built by the decider,
``restrict`` and ``reshorten``, recorded while ``PlaneEmbedding`` still
stored encoded ``(edge, end, seg)`` darts: storing int darts must not change
a byte of any output.

The 13 topological ``decide/*`` entries (plain, ab-shared and k2 on K4, K5,
K3,3 and W5, and 2K4) were re-recorded when the topological witness became
the planarity test's embedding instead of the first rotation system in
product order; every such witness must still validate.  The geometric
entries still come from the rotation search and are unchanged.

The ``simplify/parallel*``, ``simplify/antiparallel*`` and ``simplify/loop``
entries were recorded while Rule I and Rule II still wrote out each strand
reconnection by hand: they are the only cases whose steps swap or reverse
non-empty subarcs."""

from __future__ import annotations

import hashlib
import random

import pytest

from oneplanar.decider import Predicate, decide
from oneplanar.embedding import (
    embedding_from_json,
    embedding_to_json,
    restrict,
    validate_embedding,
)
from oneplanar.graph import Graph
from oneplanar.surgery import arc_system, reshorten, simplify

from conftest import complete_bipartite, complete_graph, wheel_graph
from test_embedding import c3_embedding, k4_planar, k5_one_crossing, w5_planar
from test_surgery import (
    bowtie_c4,
    first_embedding,
    loop_hosts,
    random_arc_system,
    subarc_swap_hosts,
)

# the six predicates of the benchmark pool
PREDICATES = {
    "plain": Predicate(),
    "geo": Predicate(geometric=True),
    "ab-outer-geo": Predicate("ab-outer", a=0, b=1, geometric=True),
    "ab-shared": Predicate("ab-shared", a=0, b=2),
    "a-outer-geo": Predicate("a-outer", a=0, geometric=True),
    "k2": Predicate(k=2),
}

GRAPHS = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K3,3": complete_bipartite(3, 3),
    "W5": wheel_graph(5),
}

FIXTURES = {"c3": c3_embedding, "k4": k4_planar, "k5x": k5_one_crossing,
            "w5": w5_planar}


def _decide_cases():
    for name, g in GRAPHS.items():
        for pred_name, pred in PREDICATES.items():
            yield f"decide/{name}/{pred_name}", (
                lambda g=g, pred=pred: decide(g, pred).witness)
    two_k4 = Graph.build([(u + s, v + s) for s in (0, 4)
                          for u in range(4) for v in range(u + 1, 4)])
    yield "decide/2K4/plain", lambda: decide(two_k4, Predicate()).witness


def _restrict_cases():
    for name, build in FIXTURES.items():
        rng = random.Random(name)
        ids = sorted(build().graph.edges)
        for i in range(6):
            keep = [e for e in ids if rng.random() < 0.6]
            yield f"restrict/{name}/{i}", (
                lambda build=build, keep=keep: restrict(build(), keep))


def _surgery_systems():
    bigon = Graph.build([(0, 2), (0, 4), (1, 3), (1, 4), (2, 5), (3, 5)])
    one = Graph.build([(0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])
    yield "bowtie", lambda: arc_system(bowtie_c4(), [])
    yield "bigon", lambda: arc_system(
        first_embedding(bigon, [(1, 4), (3, 5)]), [0, 2])
    yield "static", lambda: arc_system(first_embedding(one, [(0, 4)]),
                                       [1, 3, 4])
    for seed in range(4):
        yield f"random{seed}", (
            lambda seed=seed: random_arc_system(random.Random(seed)))
        yield f"straight{seed}", (
            lambda seed=seed: random_arc_system(random.Random(seed),
                                                want_straight=True))
    # Rule II steps that swap non-empty subarcs, b along a and against it,
    # and a Rule I step that reverses a non-empty loop
    for family, antiparallel in (("parallel", False), ("antiparallel", True)):
        for i in range(9):
            yield f"{family}{i}", (
                lambda i=i, antiparallel=antiparallel:
                subarc_swap_hosts(antiparallel)[i])
    yield "loop", lambda: loop_hosts()[2]


def _simplify_cases():
    """``simplify``, then ``reshorten`` to the CLI's default target, or in
    the geometric mode to the demand bound of ``test_surgery``."""
    for name, system in _surgery_systems():
        for geometric in (False, True):
            def run(system=system, geometric=geometric):
                out = simplify(system())
                arr = out.arrangement
                demand = max((arr.crossings_of_curve(c)
                              for c in arr.arc_curve_ids()), default=0)
                target = (2 * demand + 3 if geometric
                          else max(demand, out.s + out.f - 1, 3))
                return reshorten(out, target, geometric=geometric)[1]
            yield f"simplify/{name}/{'geo' if geometric else 'plain'}", run


CASES = dict([*_decide_cases(), *_restrict_cases(), *_simplify_cases()])


def digest(name: str) -> str:
    emb = CASES[name]()
    text = "None" if emb is None else embedding_to_json(emb)
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    "decide/2K4/plain":
        "fa70d6ed3b3498176f7fc464290689431c2376e70014c3b8ecc3ec20f8244f30",
    "decide/K3,3/a-outer-geo":
        "cbe2b5240a45340ffcf4d253751875ab3193ef6b0e1779e535f3401392515fcb",
    "decide/K3,3/ab-outer-geo":
        "cbe2b5240a45340ffcf4d253751875ab3193ef6b0e1779e535f3401392515fcb",
    "decide/K3,3/ab-shared":
        "8d39d3b1e2f4f4b02d74263ed6cec88803e46bdadb04f6949aff4c2543debc39",
    "decide/K3,3/geo":
        "cbe2b5240a45340ffcf4d253751875ab3193ef6b0e1779e535f3401392515fcb",
    "decide/K3,3/k2":
        "8d39d3b1e2f4f4b02d74263ed6cec88803e46bdadb04f6949aff4c2543debc39",
    "decide/K3,3/plain":
        "8d39d3b1e2f4f4b02d74263ed6cec88803e46bdadb04f6949aff4c2543debc39",
    "decide/K4/a-outer-geo":
        "3aa4cb9eb3770c3eedc2ae9b31c96c469f77513f150a29b5aef5f4dd650410c6",
    "decide/K4/ab-outer-geo":
        "3aa4cb9eb3770c3eedc2ae9b31c96c469f77513f150a29b5aef5f4dd650410c6",
    "decide/K4/ab-shared":
        "a9a7a008cc5593f3d4897e52fd1e85225ac334ec1451f321c5ada8fff9481f22",
    "decide/K4/geo":
        "3aa4cb9eb3770c3eedc2ae9b31c96c469f77513f150a29b5aef5f4dd650410c6",
    "decide/K4/k2":
        "a9a7a008cc5593f3d4897e52fd1e85225ac334ec1451f321c5ada8fff9481f22",
    "decide/K4/plain":
        "a9a7a008cc5593f3d4897e52fd1e85225ac334ec1451f321c5ada8fff9481f22",
    "decide/K5/a-outer-geo":
        "2ae4c35dec0cac4b51b5826e1154a986b507e58f869ad8b1916dff6bef3a90de",
    "decide/K5/ab-outer-geo":
        "6428f371f32cb971bd87b9698aa40cbb45e05c647a24dd811fb63d4269c3e2db",
    "decide/K5/ab-shared":
        "470164b28ac7212e7e7207a81b25abf7a9322bd5aa464544aa3f77c621f9753b",
    "decide/K5/geo":
        "2ae4c35dec0cac4b51b5826e1154a986b507e58f869ad8b1916dff6bef3a90de",
    "decide/K5/k2":
        "470164b28ac7212e7e7207a81b25abf7a9322bd5aa464544aa3f77c621f9753b",
    "decide/K5/plain":
        "470164b28ac7212e7e7207a81b25abf7a9322bd5aa464544aa3f77c621f9753b",
    "decide/W5/a-outer-geo":
        "b9b05c86db8b802dc471ac036ebcf07522e31f3ee45c79266afa537b0fb5edf2",
    "decide/W5/ab-outer-geo":
        "b9b05c86db8b802dc471ac036ebcf07522e31f3ee45c79266afa537b0fb5edf2",
    "decide/W5/ab-shared":
        "13bc4b840ad70c917ee391c42b7d646bd16b47f3fdbda4fb9c14aa2d51ca208c",
    "decide/W5/geo":
        "b9b05c86db8b802dc471ac036ebcf07522e31f3ee45c79266afa537b0fb5edf2",
    "decide/W5/k2":
        "13bc4b840ad70c917ee391c42b7d646bd16b47f3fdbda4fb9c14aa2d51ca208c",
    "decide/W5/plain":
        "13bc4b840ad70c917ee391c42b7d646bd16b47f3fdbda4fb9c14aa2d51ca208c",
    "restrict/c3/0":
        "52735ceca67f0a6ed748439d16a5ae3b0d673edb283c77dd370db3ebceeda8e4",
    "restrict/c3/1":
        "5a5327c4fb6dbdc700021256c5556bf77c4e5a58c316940be349c55ebd55270a",
    "restrict/c3/2":
        "5a5327c4fb6dbdc700021256c5556bf77c4e5a58c316940be349c55ebd55270a",
    "restrict/c3/3":
        "52735ceca67f0a6ed748439d16a5ae3b0d673edb283c77dd370db3ebceeda8e4",
    "restrict/c3/4":
        "6e8fc026328d38b0bc579915c36d1a33d5474c885bf95f5ae322908e6f235369",
    "restrict/c3/5":
        "5583f2d453bd52092f0153c263b954df9a310ec50a6f09df791f0d405370d00f",
    "restrict/k4/0":
        "7ae7213b774fc4735cb0b01c32a856a71ae27e58ee075cdba4ffc7bbc5826ced",
    "restrict/k4/1":
        "5a5327c4fb6dbdc700021256c5556bf77c4e5a58c316940be349c55ebd55270a",
    "restrict/k4/2":
        "3462aab8ba8a2ce2b0324f9e13ae2079184983265179cc460dc49a9793bbc224",
    "restrict/k4/3":
        "6d218603973fc1cff1496d32fff999edabb99cd011b051d38a497cc8575b1c3f",
    "restrict/k4/4":
        "04ce5da4da992182466c2bdb0adabf3284d373f820fc9907fc47c1c626da4f6c",
    "restrict/k4/5":
        "152c60ac258d9c05257420771f10d519eeec39cddacc6fcf9e7d296c51008f4c",
    "restrict/k5x/0":
        "24f140152559b6f24a5e1a919462abf0da24d42a575da466b1f7c14132dc8a1c",
    "restrict/k5x/1":
        "79b0db569bfb64547b9a498caa10e0755b9d38262a4a39e34c55ff741b503ce0",
    "restrict/k5x/2":
        "8702b8cd7594af0c0667d5bfa20aef887edd64cc76b9b56050f8c6e736f7be38",
    "restrict/k5x/3":
        "65e0f14ec3a86a274e5ba5295832c2b0e9340e09db4590a47d96ce84401c5780",
    "restrict/k5x/4":
        "7c216cf495288c717e0d1d435e1ce7c2eb553a6d8398a4170bbd9a971c38a084",
    "restrict/k5x/5":
        "45a09740b2b57dfa90a1f17339d79044a362143ec996e418a2637164c0ff15bd",
    "restrict/w5/0":
        "9f607bb563edf45d9c3732d39365d82c837d57aa515cd1f0723467a0999689fa",
    "restrict/w5/1":
        "f1773bce5769a6206b1aed33784c625fea40e996137ea479e3e4a7951088fb88",
    "restrict/w5/2":
        "be10a82293847de10e0249307575ff3edc43da0cb8881adc91781e1f0c694df7",
    "restrict/w5/3":
        "09560f30cc6fa02c99676b0a9ef69b6430ef2327d3d133bbedcefc1b2ceea638",
    "restrict/w5/4":
        "6bf6aa887bfde819868935c6019548a2accbd48e716d3ee53f850a9ff81304ba",
    "restrict/w5/5":
        "c53fa022aea1b2ba89e48d4538dfc4d70990b61910541bf71c1d7b1fd4e63cd7",
    "simplify/antiparallel0/geo":
        "e23813d3839d9e5fd7d4a9edbd43fa01653207faccb914deb41b46e8cee07698",
    "simplify/antiparallel0/plain":
        "5a13b37618fb9625325feeb4f7413574847d021a3c841719e3d8bab5e0fdb8b0",
    "simplify/antiparallel1/geo":
        "6110d821e67ebebbe3b9b49b1bb6a670167fe5bac20e20cf92c248ee138d6a0a",
    "simplify/antiparallel1/plain":
        "b4889358bb8ee6755ddbaeb4707609a5ca5883675592995bd5d5d61adc6dcb21",
    "simplify/antiparallel2/geo":
        "5e5bffd53f58ead7883e0769962b7f6ab6fbc86e8e75dd4bb5fed843c370e67e",
    "simplify/antiparallel2/plain":
        "73dda15dc307aa61cca50caa7c5c52619e58c27e406ed1faa5f96775ee3dfc51",
    "simplify/antiparallel3/geo":
        "65d268aba5ad98b64ac7246c99d27b8ee53a2e96928a88f8724bb694ae758eb4",
    "simplify/antiparallel3/plain":
        "263205baa2bdf7a0bd4ff7f435bda3d782c8353d26b4153d375115475edf7910",
    "simplify/antiparallel4/geo":
        "293c6a7459c260c318a3d2d537e00eb0f6459cd6a3739b43071b07682f7b4803",
    "simplify/antiparallel4/plain":
        "4e11e4efc55400dd90b1144407b9c28c1c8c00d5ab2f303fc212c135281d9943",
    "simplify/antiparallel5/geo":
        "7c13029bd491d8bb0d7bb86498e7f4550b42e83674c0a66f7eb20b0d17392b46",
    "simplify/antiparallel5/plain":
        "e07f22a100fa1c78eac4d647a20503ef87daa2dcf07df92e65c800f5c3b6dbf1",
    "simplify/antiparallel6/geo":
        "fb48b3366fc7800c21b6324d939d6f6832ff38bc89b87ee5222d020adef3940c",
    "simplify/antiparallel6/plain":
        "165e489d87be49ab8f3ee40f779d1b3be30453d3c9bbf952e770314646f40f6f",
    "simplify/antiparallel7/geo":
        "1bb2c5a175bd08dc2080d7a54ff5db9dafeb3ae1a13de7a9d184fc4ac52e8732",
    "simplify/antiparallel7/plain":
        "3a67aae6f28e8cdeb366cdeab4319fcb12957b0994784e1ce25633f5771a98f7",
    "simplify/antiparallel8/geo":
        "f48e1cb910e8a82fb94c0e488e834eb8755909bf5124df940f35d928e5e5ada2",
    "simplify/antiparallel8/plain":
        "f3baad839ec2a206d4f4c29935722b20351c5664f750b68d04a20b61282d3432",
    "simplify/bigon/geo":
        "0c41b03f67624eeac95d8db627c042f6f8f484edfa1d55c7adadf531336486fd",
    "simplify/bigon/plain":
        "0c41b03f67624eeac95d8db627c042f6f8f484edfa1d55c7adadf531336486fd",
    "simplify/bowtie/geo":
        "be7654f2b58e523c9faa1f77ea12950a0c8da658e6300e07e89630d522d2e8e3",
    "simplify/bowtie/plain":
        "be7654f2b58e523c9faa1f77ea12950a0c8da658e6300e07e89630d522d2e8e3",
    "simplify/loop/geo":
        "34783bdc1ed37050a91bd30855913abd8c4ea6eff15e7978a5235dda82950fca",
    "simplify/loop/plain":
        "0bc06b3c151b5c476ed162fdbd6e4f0a92828d874e30c437bf87813fbd36dc6f",
    "simplify/parallel0/geo":
        "6bac628ae334826aee74f055c23c1b0e389ea400e988e75fbad6cfea45788739",
    "simplify/parallel0/plain":
        "376b42041be8e139e9d68acba6141902d1c6f26321139ff2ca9ea1391ecd044b",
    "simplify/parallel1/geo":
        "c4aa25697850cb286f61bf631d3fe5815074efba00be3eec5e84e80114d55d01",
    "simplify/parallel1/plain":
        "d3dd986f0a21836df793d50c62953d153f545c008e78c8422de423068f769c34",
    "simplify/parallel2/geo":
        "5546704b4cbd13fc6c705cd9eb25654acd498f7e8cceae9f1ec18b5a3b421e6d",
    "simplify/parallel2/plain":
        "c5049d9a5f03d02e383eabdf9c31e29c91dd95b9193d63354464f8808bc946b0",
    "simplify/parallel3/geo":
        "da178aee567585a659f0102fefad98d0c98662333ddaea8342e70a0f31f5d86f",
    "simplify/parallel3/plain":
        "c4b75a15e2033a36229deb2c07615c2d0aaa00b6c3390c8674e14e2f2f3690f6",
    "simplify/parallel4/geo":
        "034ae23db4bdfff49491ebd2c0491fc8bf399c6532bac598ed353df6633b2598",
    "simplify/parallel4/plain":
        "83a83e05fe1ce4eb63c1cc4df8bbe25a1fed2b8b158c694ad3434d705dd36449",
    "simplify/parallel5/geo":
        "c665e2922efd73985bc1c979b3fa9c4b6da0f088a18a8d3db277eb736694dcb2",
    "simplify/parallel5/plain":
        "b9da2b881a84830b89085624221ffa548c05ce181a626eae490cb56e857eb107",
    "simplify/parallel6/geo":
        "926ac077be648b876728da3c8d8bf7c28cfd2946cf012ad3acd0fe219eae1235",
    "simplify/parallel6/plain":
        "d1b8cac724523663faac86314346da87a9cebb6c6d55848d4dcd1f2213694cae",
    "simplify/parallel7/geo":
        "f3ffbdf0f7c03d53bfcd73d289582978128e74af520161b609a2b531d5679d1b",
    "simplify/parallel7/plain":
        "653d48b48f0925c4c9dc49d2f370dab20fb64bd7d5be426a0aabb5b1156b9a73",
    "simplify/parallel8/geo":
        "bd96f0603a57cf341cf2dd6f19bb244260e6e95f3b7466be04e87ab030fd125c",
    "simplify/parallel8/plain":
        "dcea8a810be84a6a9cb6b45de9b75d45ce42cf52e41121c2cfffaa6dd30a3e71",
    "simplify/random0/geo":
        "04bbb927695e55e477c09a9101ebe0a3c888b7ad8c5128ba12f437fdc7fb499b",
    "simplify/random0/plain":
        "9cabab9509e0c8355d71b8b81f78ca30ce7df20dac87d8746c7078795695d43d",
    "simplify/random1/geo":
        "b9e1b3a9de2782e3fcedb803f9ce051bb09231aaaf9aac31d70b4d76aecf96a3",
    "simplify/random1/plain":
        "d89db06f05fd64bc783245f74b7918ae42fe9347f47367ba89fc9b4363eed9af",
    "simplify/random2/geo":
        "ada589944c7b0aafabaffd5e1889bb2f665b0c35dca642c5fdb321210caa21d3",
    "simplify/random2/plain":
        "ada589944c7b0aafabaffd5e1889bb2f665b0c35dca642c5fdb321210caa21d3",
    "simplify/random3/geo":
        "5eb0fc4bd33456ae83c3ef2a03def6f6772cb426914909d8924c89ef138c344a",
    "simplify/random3/plain":
        "ff2c2d48c04eb5d02602030526af02af606c84b68e5b2dda945e65c8a1fb6025",
    "simplify/static/geo":
        "362307c282ffc7115a3d7665b56754b48de6ddeadada9a536c30085cb7d17011",
    "simplify/static/plain":
        "9f0adb782c79a3182e7577ad48cfd05a76834e79a0ab68340eabcd37de21e56e",
    "simplify/straight0/geo":
        "04bbb927695e55e477c09a9101ebe0a3c888b7ad8c5128ba12f437fdc7fb499b",
    "simplify/straight0/plain":
        "9cabab9509e0c8355d71b8b81f78ca30ce7df20dac87d8746c7078795695d43d",
    "simplify/straight1/geo":
        "9bfc78a3aa7d8fe59492a9d7d838d5f7999851b0580c25b2a3dd38589f24fcf1",
    "simplify/straight1/plain":
        "c381d1e5f1094954f56cbd34da58fbec58990c27a1ac2f6c6989a7c1983ef111",
    "simplify/straight2/geo":
        "50251e8e758409602af0e32b9f2ae4831bb9ce46674e18bf850be920cb52d5c2",
    "simplify/straight2/plain":
        "50251e8e758409602af0e32b9f2ae4831bb9ce46674e18bf850be920cb52d5c2",
    "simplify/straight3/geo":
        "0a8d757279aadfca640722616b2d52276222a2d646f9813999abf3057d88a241",
    "simplify/straight3/plain":
        "ebc906e96e66bd5e05077bdffabe42f814a2679aae9cb3fae1652e7a151a5a1b",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_embedding_json_is_byte_identical(name):
    assert digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(n for n in DIGESTS
                                        if n.startswith("decide/")))
def test_decide_witness_validates(name):
    emb = CASES[name]()
    k = 2 if name.endswith("/k2") else 1
    validate_embedding(emb)
    assert embedding_to_json(embedding_from_json(embedding_to_json(emb),
                                                 k=k)) == embedding_to_json(emb)


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)
