"""graphtheta: degree-based topological indices and exhaustive surveys
of the ABC-ABS gap over trees and small connected graphs."""

__version__ = "0.1.0"

from .graphs import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    Graph,
    GraphError,
    SelfLoopError,
    Shape,
    VertexOutOfRange,
    classify_shape,
    from_edge_list,
    is_connected,
    min_degree,
    subdivide_at_degree2,
)
from .graph6 import parse_graph6, to_graph6
from .indices import (
    IndexReport,
    Sign,
    index_report,
    sign_of_gap,
)

__all__ = [
    "DisconnectedGraphError",
    "DuplicateEdgeError",
    "Graph",
    "GraphError",
    "IndexReport",
    "SelfLoopError",
    "Shape",
    "Sign",
    "VertexOutOfRange",
    "__version__",
    "classify_shape",
    "from_edge_list",
    "index_report",
    "is_connected",
    "min_degree",
    "parse_graph6",
    "sign_of_gap",
    "subdivide_at_degree2",
    "to_graph6",
]
