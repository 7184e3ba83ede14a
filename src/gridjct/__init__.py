"""Grid-curve crossing toolkit.

Curve and path validation on grid graphs, parity-based side classification,
per-column edge alternation, two-region labeling on the refined grid, the
reductions between side-crossing and corner-to-corner connectivity instances,
and DIMACS generators for the corresponding CNF families.
"""

from .alternation import (
    ColumnAlternation,
    Segment,
    SegmentClass,
    alternate,
    alternation_lemma_witness,
    check_crossing_condition,
    check_edge_alternation,
    classify_segment,
    column_sets,
    column_sets_from_segments,
    minimal_segments,
    reindex_canonical,
)
from .cnf import (
    CnfFormula,
    check_unsat,
    decode_model,
    gen_stconn,
    gen_stseq,
    solve,
    to_dimacs,
)
from .errors import (
    FormatError,
    GenerationExhausted,
    GridJctError,
    InvalidInstance,
    LemmaViolation,
    PreconditionViolation,
    SolverBudgetExhausted,
    TheoremViolation,
)
from .generate import gen_crossing_instance, gen_random_curve
from .grid import (
    CLOSED,
    OPEN,
    DirectedEdge,
    Edge,
    EdgeSequence,
    EdgeSet,
    GridPoint,
    Instance,
    SidePair,
    check_crossing,
    connects,
    intersects,
    is_curve,
    on_different_sides,
    pair_code,
    refine,
    rotate_90,
    side_pair,
    translate,
)
from .jordan import (
    SideSequences,
    count_regions,
    find_intersection_seq,
    merge_paths,
    region_connect,
    side_sequences,
)
from .jsonio import (
    edge_sequence_from_json,
    edge_sequence_to_json,
    edge_set_from_json,
    edge_set_to_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from .parity import (
    IntersectionWitness,
    LemmaReport,
    ParityProfile,
    check_parity_lemma,
    column_transition_parities,
    find_intersection_set,
    is_odd_edge,
    normalize_instance,
    parity_profile,
)
from .reduce import (
    StConnInstance,
    edge_at,
    jct_to_stconn_seq,
    jct_to_stconn_set,
    jct_witness_to_stconn,
    stconn_to_jct_seq,
    stconn_to_jct_set,
)
from .render import render_svg

__version__ = "0.1.0"
