"""Compacted de Bruijn graph construction and short-read mapping on its
branching unitig paths, with an exhaustive audit mapper and an accuracy
evaluation harness."""

from .census import (
    KmerCensus,
    SolidKmerSet,
    count_kmers,
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
    compact,
    read_unitigs_fasta,
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
)

__version__ = "0.1.0"

__all__ = [
    "AnchorIndex",
    "CompactedGraph",
    "EvalReport",
    "EvalRow",
    "InteriorIndex",
    "KmerCensus",
    "MappingParams",
    "MappingResult",
    "MAX_K",
    "Read",
    "SimConfig",
    "SimulatedRead",
    "SolidKmerSet",
    "build_anchor_index",
    "build_interior_index",
    "build_reference_graph",
    "compact",
    "count_kmers",
    "distance_to_optimum",
    "load_indexes",
    "map_branching",
    "map_exhaustive",
    "map_read",
    "map_reads",
    "map_single_unitig",
    "map_stream",
    "read_sequences",
    "read_unitigs_fasta",
    "reverse_complement",
    "run_accuracy_sweep",
    "save_indexes",
    "simulate_reads",
    "solid_set",
    "write_fasta",
    "write_gfa",
    "write_unitigs_fasta",
]
