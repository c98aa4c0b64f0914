"""Recognition toolkit for (geometric) 1-planar and k-planar graphs:
kernelization by feedback edge number, treedepth reduction rules,
brute-force deciders, embedding surgery, and hardness-instance generators.
"""

from .graph import (
    Graph,
    GraphError,
    FeedbackEdgeSet,
    Degree2PathDecomposition,
    BlockCutTree,
    TreedepthDecomposition,
    LinearOrdering,
    prune_degree_one,
    feedback_edge_set,
    decompose_degree2_paths,
    block_cut_tree,
    treedepth_decomposition,
    subdivide_all_edges,
    parse_edge_list,
    format_edge_list,
)
from .embedding import (
    PlaneEmbedding,
    CrossingPair,
    Arc,
    EmbeddingError,
    build_embedding,
    validate_embedding,
    restrict,
    embedding_to_json,
    embedding_from_json,
)
from .straightening import (
    BWConfiguration,
    LMRWord,
    find_bw_configurations,
    lmr_word,
    is_straightenable,
)
from .decider import (
    CapExceeded,
    DecideStats,
    Predicate,
    Verdict,
    decide,
    enumerate_crossing_sets,
    enumerate_embeddings,
)
from .surgery import ArcSystem, arc_system, simplify, reshorten
from .kernel import (
    KernelPlan,
    KernelResult,
    kernelize,
    worst_case_size,
    triangulation_bound,
    convex_certificate,
)
from .td_pipeline import Thresholds, PipelineOutcome, run_pipeline
from .reductions import (
    BinPackInstance,
    LabeledInstance,
    TwoTerminalGadget,
    normalize_binpack,
    gen_binpack_instance,
    fvs_witness,
    pathwidth_witness,
    replace_edges_with_gadget,
    bandwidth_lift,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
