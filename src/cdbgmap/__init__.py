"""Compacted de Bruijn graph construction and short-read mapping on its
branching unitig paths, with an exhaustive audit mapper and an accuracy
evaluation harness."""

from .census import (
    KmerCensus,
    SolidKmerSet,
    count_kmers,
    load_solid,
    save_solid,
    solid_set,
)
from .evaluation import (
    EvalReport,
    EvalRow,
    SimConfig,
    SimulatedRead,
    build_reference_graph,
    distance_to_optimum,
    run_accuracy_sweep,
    simulate_reads,
)
from .fastx import read_sequences, write_fasta
from .graph import (
    CompactedGraph,
    DbgWalk,
    PathEnumeration,
    Unitig,
    compact,
    enumerate_paths,
    read_unitigs_fasta,
    walk_sequence,
    write_gfa,
    write_unitigs_fasta,
)
from .index import (
    AnchorIndex,
    InteriorIndex,
    build_anchor_index,
    build_interior_index,
    load_indexes,
    save_indexes,
)
from .mapper import (
    MappingParams,
    MappingResult,
    map_branching,
    map_exhaustive,
    map_read,
    map_reads,
    map_single_unitig,
    map_stream,
)
from .sequences import (
    MAX_K,
    Read,
    reverse_complement,
    reverse_complement_read,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorIndex",
    "CompactedGraph",
    "DbgWalk",
    "EvalReport",
    "EvalRow",
    "InteriorIndex",
    "KmerCensus",
    "MappingParams",
    "MappingResult",
    "MAX_K",
    "PathEnumeration",
    "Read",
    "SimConfig",
    "SimulatedRead",
    "SolidKmerSet",
    "Unitig",
    "build_anchor_index",
    "build_interior_index",
    "build_reference_graph",
    "compact",
    "count_kmers",
    "distance_to_optimum",
    "enumerate_paths",
    "load_indexes",
    "load_solid",
    "map_branching",
    "map_exhaustive",
    "map_read",
    "map_reads",
    "map_single_unitig",
    "map_stream",
    "read_sequences",
    "read_unitigs_fasta",
    "reverse_complement",
    "reverse_complement_read",
    "run_accuracy_sweep",
    "save_indexes",
    "save_solid",
    "simulate_reads",
    "solid_set",
    "walk_sequence",
    "write_fasta",
    "write_gfa",
    "write_unitigs_fasta",
]
