"""sha256 of every file written by ``gen-binpack``, ``gen-replace``,
``lift-bandwidth`` and ``kernelize`` on fixed and seeded inputs, recorded
while ``Graph`` still carried vertex and edge labels: moving the labels to
the Bin Packing instance must not change a byte of any generated file."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from oneplanar.cli import main
from oneplanar.graph import format_edge_list

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    theta_graph,
    wheel_graph,
)

K6 = {"edges": [[i, j] for i in range(6) for j in range(i + 1, 6)],
      "alpha": 0, "beta": 1}
DIAMOND = {"edges": [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
           "alpha": 0, "beta": 1}
BINPACK = {
    "3,1,2,2/2x4": ["--items", "3,1,2,2", "--bins", "2", "--capacity", "4"],
    "2,2,1/3x2": ["--items", "2,2,1", "--bins", "3", "--capacity", "2"],
    "4,5,5,6/2x10": ["--items", "4,5,5,6", "--bins", "2",
                     "--capacity", "10"],
    "raw/3,3,3,3/2x6": ["--items", "3,3,3,3", "--bins", "2",
                        "--capacity", "6", "--raw"],
    "raw/4,3,4,3,4/3x6": ["--items", "4,3,4,3,4", "--bins", "3",
                          "--capacity", "6", "--raw"],
    "raw/empty/2x1": ["--bins", "2", "--capacity", "1", "--raw"],
}
GRAPHS = {
    "k4": lambda: complete_graph(4),
    "p4": lambda: path_graph(4),
    "w5": lambda: wheel_graph(5),
    "theta-2-3-4": lambda: theta_graph((2, 3, 4)),
    "theta-1-5-9-9": lambda: theta_graph((1, 5, 9, 9)),
    "cycle-7": lambda: cycle_graph(7),
    **{f"random-{seed}": (lambda seed=seed: random_connected_graph(
        random.Random(seed), 8 + seed, 3 + seed)) for seed in range(3)},
}
REPLACE_GRAPHS = ["k4", "w5", "theta-1-5-9-9", "random-1"]
LIFT_GRAPHS = ["p4", "w5", "random-2"]
GADGETS = {"k6": K6, "diamond": DIAMOND}
KERNEL_GRAPHS = ["k4", "w5", "theta-2-3-4", "theta-1-5-9-9", "cycle-7",
                 "random-0", "random-1", "random-2"]
KERNEL_VARIANTS = {"1p": [], "g1p": [], "gkp": [], "kp": ["--k", "2"]}


def _run(argv: list[str]) -> None:
    assert main(argv) == 0


def _graph_file(tmp_path, name: str) -> str:
    path = tmp_path / "in.edges"
    path.write_text(format_edge_list(GRAPHS[name]()))
    return str(path)


def _gadget_file(tmp_path, name: str) -> str:
    path = tmp_path / "gadget.json"
    path.write_text(json.dumps(GADGETS[name]))
    return str(path)


def _binpack(name: str, tmp_path) -> list:
    out, wdir = tmp_path / "out.edges", tmp_path / "w"
    _run(["gen-binpack", *BINPACK[name], "--out", str(out),
          "--witnesses", str(wdir)])
    return [out, wdir / "fvs.txt", wdir / "path_decomposition.txt"]


def _replace(name: str, tmp_path) -> list:
    graph, gadget = name.split("/")
    out = tmp_path / "out.edges"
    _run(["gen-replace", "--graph", _graph_file(tmp_path, graph),
          "--gadget", _gadget_file(tmp_path, gadget), "--out", str(out)])
    return [out]


def _lift(name: str, tmp_path) -> list:
    graph, gadget, seed = name.split("/")
    g = GRAPHS[graph]()
    order = sorted(g.vertices)
    random.Random(int(seed)).shuffle(order)
    ordering = tmp_path / "order.txt"
    ordering.write_text("".join(f"{v} {i}\n" for i, v in enumerate(order, 1)))
    out, graph_out = tmp_path / "out.txt", tmp_path / "lifted.edges"
    _run(["lift-bandwidth", "--graph", _graph_file(tmp_path, graph),
          "--ordering", str(ordering),
          "--gadget", _gadget_file(tmp_path, gadget),
          "--out", str(out), "--graph-out", str(graph_out)])
    return [out, graph_out]


def _kernel(name: str, tmp_path) -> list:
    variant, graph = name.split("/")
    out = tmp_path / "out.edges"
    _run(["kernelize", "--variant", variant, *KERNEL_VARIANTS[variant],
          "--in", _graph_file(tmp_path, graph), "--out", str(out)])
    return [out]


CASES = {
    **{f"gen-binpack/{name}": _binpack for name in BINPACK},
    **{f"gen-replace/{graph}/{gadget}": _replace
       for graph in REPLACE_GRAPHS for gadget in GADGETS},
    **{f"lift-bandwidth/{graph}/{gadget}/{seed}": _lift
       for graph in LIFT_GRAPHS for gadget in GADGETS for seed in (0, 1)},
    **{f"kernelize/{variant}/{graph}": _kernel
       for variant in KERNEL_VARIANTS for graph in KERNEL_GRAPHS},
}


def digest(name: str, tmp_path) -> str:
    """One sha256 over every written file, each prefixed by its name."""
    rest = name.split("/", 1)[1]
    h = hashlib.sha256()
    for path in CASES[name](rest, tmp_path):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


DIGESTS = {
    "gen-binpack/2,2,1/3x2":
        "89f202a2215037107afeba52b0f224e521e6c4072d7386c4939c175e1d870edf",
    "gen-binpack/3,1,2,2/2x4":
        "591eff96b865ccb5e6fffecc8fc9183274c1d14a74aec57564dea0a0c9d6ed7b",
    "gen-binpack/4,5,5,6/2x10":
        "ab834009a79ae59f69e4e0bdd065c0b3d200f63046acf352925e9ce30a1c5184",
    "gen-binpack/raw/3,3,3,3/2x6":
        "7f66d43ed00c8969a6baa5ef304fadb7697b38f980b457bc267b262ac6801d5a",
    "gen-binpack/raw/4,3,4,3,4/3x6":
        "d478b32a150a588cb5e26887e2751c287fd65a70cd09b7b546e4f753eaf48bc0",
    "gen-binpack/raw/empty/2x1":
        "ce72f747bb57bb80b76b9395e90623d311d1ee4670f2b2349bc8a06ae01c17cb",
    "gen-replace/k4/diamond":
        "cf94fc211cbdce852d000ca29d43d45af6dd9edccb156028f42f337c058da6cf",
    "gen-replace/k4/k6":
        "b3b36cfca5bb56a6ca6f9826306c58eb4faf0989f7ac658b83fbd763204c4c59",
    "gen-replace/random-1/diamond":
        "3f8a07849de3951d09f1199ac91dc1b4800f21d9f3fffaeb02b7a0f144e08443",
    "gen-replace/random-1/k6":
        "f487015a72a14a7223c92313f0e74e9b16e0f1d7f0b67d82ba9334caa96ae53d",
    "gen-replace/theta-1-5-9-9/diamond":
        "f3ed44ff731668c52921e4c0f4b556b748c82998176aa821f3c3d7de0241ae59",
    "gen-replace/theta-1-5-9-9/k6":
        "c9c68769926f71a2fb1a73c32a77f658eae87d7f15f1774f5464e23801dea7d8",
    "gen-replace/w5/diamond":
        "ae74a4dc02c8cfaefa3a9986c11a2783aa6c2cf9c7331aba0092716333ec4b42",
    "gen-replace/w5/k6":
        "0ded303df002f67f31d5680467f22a30ddd99d740dab3c3edefe6044c7488e74",
    "kernelize/1p/cycle-7":
        "0ef9b9b4e9301ba0119091e79dc59733a9f55a61ad2412c0b211cb646bf8b83a",
    "kernelize/1p/k4":
        "18c9b82137226c5f7f8fa75aa7319d5b762e4170167959998b3baba6040b4b20",
    "kernelize/1p/random-0":
        "0367f3b52fbd286fdd85efaf7df0f823cb059afc6878304d7a73db3f477c8a5b",
    "kernelize/1p/random-1":
        "f40abcca7028b787c9e8c7eda915109c22836ec49b0a800f1f5b0d166119c080",
    "kernelize/1p/random-2":
        "8590d1e0fbad624856ba62938f79de1b288a3104065ddcf57541a06871664d53",
    "kernelize/1p/theta-1-5-9-9":
        "d718d51c1750c4b87630d9827fe8b741abba274f1813cefd47f9ec2023fe9b23",
    "kernelize/1p/theta-2-3-4":
        "0ef9b9b4e9301ba0119091e79dc59733a9f55a61ad2412c0b211cb646bf8b83a",
    "kernelize/1p/w5":
        "0bef1a3ce34bf7a98d10281130128729da54e1bad13d56776e0b68039ebbcaf4",
    "kernelize/g1p/cycle-7":
        "0ef9b9b4e9301ba0119091e79dc59733a9f55a61ad2412c0b211cb646bf8b83a",
    "kernelize/g1p/k4":
        "18c9b82137226c5f7f8fa75aa7319d5b762e4170167959998b3baba6040b4b20",
    "kernelize/g1p/random-0":
        "0367f3b52fbd286fdd85efaf7df0f823cb059afc6878304d7a73db3f477c8a5b",
    "kernelize/g1p/random-1":
        "f40abcca7028b787c9e8c7eda915109c22836ec49b0a800f1f5b0d166119c080",
    "kernelize/g1p/random-2":
        "8590d1e0fbad624856ba62938f79de1b288a3104065ddcf57541a06871664d53",
    "kernelize/g1p/theta-1-5-9-9":
        "3618a76c7a6656e0591293b77fca289c54f164f877955d62be5dd32bad5bc865",
    "kernelize/g1p/theta-2-3-4":
        "0ef9b9b4e9301ba0119091e79dc59733a9f55a61ad2412c0b211cb646bf8b83a",
    "kernelize/g1p/w5":
        "0bef1a3ce34bf7a98d10281130128729da54e1bad13d56776e0b68039ebbcaf4",
    "kernelize/gkp/cycle-7":
        "0ef9b9b4e9301ba0119091e79dc59733a9f55a61ad2412c0b211cb646bf8b83a",
    "kernelize/gkp/k4":
        "18c9b82137226c5f7f8fa75aa7319d5b762e4170167959998b3baba6040b4b20",
    "kernelize/gkp/random-0":
        "0367f3b52fbd286fdd85efaf7df0f823cb059afc6878304d7a73db3f477c8a5b",
    "kernelize/gkp/random-1":
        "f40abcca7028b787c9e8c7eda915109c22836ec49b0a800f1f5b0d166119c080",
    "kernelize/gkp/random-2":
        "8590d1e0fbad624856ba62938f79de1b288a3104065ddcf57541a06871664d53",
    "kernelize/gkp/theta-1-5-9-9":
        "3618a76c7a6656e0591293b77fca289c54f164f877955d62be5dd32bad5bc865",
    "kernelize/gkp/theta-2-3-4":
        "0ef9b9b4e9301ba0119091e79dc59733a9f55a61ad2412c0b211cb646bf8b83a",
    "kernelize/gkp/w5":
        "0bef1a3ce34bf7a98d10281130128729da54e1bad13d56776e0b68039ebbcaf4",
    "kernelize/kp/cycle-7":
        "0ef9b9b4e9301ba0119091e79dc59733a9f55a61ad2412c0b211cb646bf8b83a",
    "kernelize/kp/k4":
        "82ed1d84c86d6d4454d664a1bbf32ac4c70b44411391bb76d4d8820c1336e610",
    "kernelize/kp/random-0":
        "0754aebb2c0dec150cefd3073e303d7a83321e82e2abde188810f561a1cd5d8d",
    "kernelize/kp/random-1":
        "5ce1ac44ffbf39e66aba18910bc7be7c87edf0fea9d01ead5439f6e1a582c2e4",
    "kernelize/kp/random-2":
        "a0ab87406f67361b6429b4598fe63f69d8d62f6bffb1ee5bd1c70b4e1a2dc33f",
    "kernelize/kp/theta-1-5-9-9":
        "7c39a0d5f6033cb4a75963b0bcfd96c406dde4764a697e018f8c25c8b9fc4fae",
    "kernelize/kp/theta-2-3-4":
        "0ef9b9b4e9301ba0119091e79dc59733a9f55a61ad2412c0b211cb646bf8b83a",
    "kernelize/kp/w5":
        "370064f6edbeaccce99bdafe332572078673b756d8068a00664129ac10e8b2be",
    "lift-bandwidth/p4/diamond/0":
        "738a2bcb54eb5cbb9d7b078cc361e4b46d4783bfc0810f3fa1f03b6d74eb0f1f",
    "lift-bandwidth/p4/diamond/1":
        "12e3d7011c0eca724d97c1b76ba58992f6b47d614962e32bdc4cb2bbf7509713",
    "lift-bandwidth/p4/k6/0":
        "fe525366507834a65560642090e07f07b7b237de895e8c5c400a9c0e2f008447",
    "lift-bandwidth/p4/k6/1":
        "922a4aa49b2025eb5e31b87108a0d328398b2bbee54cf8fb3c7d25839d9a5ba2",
    "lift-bandwidth/random-2/diamond/0":
        "9d5cd42d4ab111716c30cc1b391f0749a109942f1b213ee50ac92547a194e83e",
    "lift-bandwidth/random-2/diamond/1":
        "ca136a65947102f927a5951c53d310a940c04498df16fd267b24309cc857b534",
    "lift-bandwidth/random-2/k6/0":
        "48f4fe865f5f049d7ddb79b12fbb44bc5fbfbf208335a91c2a721b89b1b78637",
    "lift-bandwidth/random-2/k6/1":
        "3ac7dfc7b797ca449052e19c20016c1e3138a334d54c1e7ace65cd67b4a2c008",
    "lift-bandwidth/w5/diamond/0":
        "c2fc8358a8fba8946adc26f8ea0c30bc006c8cd4e51ea844f6ef9d09e3b958ad",
    "lift-bandwidth/w5/diamond/1":
        "b8940d6bde7757d64c8af359775c14c2fd94b09e2383020c4f393f3a0980c992",
    "lift-bandwidth/w5/k6/0":
        "c0b355822fbc82ab8c87defaa496f4180733fff8d904ca11a9e26b7ca58608a2",
    "lift-bandwidth/w5/k6/1":
        "43086b7371d7fd2227bc88bb50f82c3f684fa8cd6d8285cb64ca099e2b364376",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_files_are_byte_identical(name, tmp_path):
    assert digest(name, tmp_path) == DIGESTS[name]


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)
