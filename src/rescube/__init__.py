"""rescube: resonance graphs of plane bipartite graphs, their daisy-cube and
distributive-lattice codings, and brute-force verification of the
decomposition structure behind them."""

from . import errors
from .benzenoid import (
    benzenoid_from_text,
    build_benzenoid,
    catacondensed_polyhexes,
    hexagon_face_id,
    parse_benzenoid,
)
from .coding import (
    ColorSwapReport,
    Labelling,
    bit_string,
    color_swap_effect,
    daisy_label_set,
    daisy_labelling,
    fdl_labelling,
    labelling_is_proper,
)
from .cube_kit import (
    DaisyVerdict,
    MetricGraph,
    PartialCubeVerdict,
    ThetaClasses,
    is_daisy_cube,
    is_median,
    is_partial_cube,
    theta_classes,
)
from .decomposition import (
    RfdSequence,
    auto_rfd,
    find_reducible_faces,
    rfd_from_face_order,
    split_by_face,
    theorem_report,
    verify_reducible_split,
)
from .matchings import (
    MatchingFamily,
    enumerate_matchings,
    extremal_matchings,
)
from .plane_graph import (
    Face,
    FacialHandleDecomposition,
    Handle,
    PlaneGraph,
    build_plane_graph,
    edge_subgraph,
    elementary_analysis,
    facial_handle_decomposition,
    from_rotation_system,
    graph_from_json,
    graph_to_json,
    handles,
    is_peripherally_two_colorable,
    swap_colors,
)
from .resonance import (
    ResonanceGraph,
    build_resonance,
    resonance_to_dot,
    resonance_to_json,
)

__version__ = "0.1.0"
