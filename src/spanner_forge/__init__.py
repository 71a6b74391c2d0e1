"""Euclidean spanner toolkit.

Builds (1+eps)-spanners (path-greedy, net-tree, and a two-phase greedy
pruning pipeline), verifies stretch exactly, measures sparsity and
lightness, and generates the hard instances on which greedy is far from
the per-instance optimum.
"""

from .geom import PointSet, Region, normalize
from .graph import (
    MetricsReport,
    SpannerGraph,
    brute_force_optimal,
    emst_weight,
    metrics,
    path_greedy,
    verify_stretch,
)
from .nets import (
    ClusterGraph,
    NetHierarchy,
    build_cluster_graph,
    build_hierarchy,
    build_net_tree_spanner,
    cluster_dist,
)
from .prune import (
    PhaseReport,
    PruneParams,
    classify_edges,
    greedy_prune,
    phase1,
    phase2,
    update_params,
)
from .instances import (
    GeneratedInstance,
    gen_lightness_lb,
    gen_lightness_lb_x,
    gen_motivating,
    gen_random,
    gen_sparsity_lb,
    gen_sparsity_lb_x,
    tile_copies,
)

__version__ = "0.1.0"
