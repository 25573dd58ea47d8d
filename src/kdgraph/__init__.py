"""kdgraph: rule-based completion of frame-style knowledge bases.

Builds typed description graphs from has(subject, slot, value) facts,
derives missing event structure and IO relations, resolves duplicate
instances with graded confidence, links fragmented event chains, and
extracts structural answers for how/why questions.
"""

from .derivation import EventKind
from .facts import Fact, FactSyntaxError, KnowledgeStore, Provenance, parse_fact_file, parse_fact_path
from .graph import (
    DescriptionGraph,
    Edge,
    EdgeFamily,
    GraphCycleError,
    NodeKind,
    build_kdg,
    build_udg,
    rooted_subgraph,
)
from .linking import JoinAtom, possible_next_events, subevent_closure, synthesize_super_event
from .oracle import differential_check, encode_program
from .pipeline import PipelineResult, run_pipeline
from .resolution import Confidence, match_instances, spatial_match
from .taxonomy import ClassHierarchy, HierarchyCycleError, main_classes

__version__ = "0.1.0"

__all__ = [
    "ClassHierarchy",
    "Confidence",
    "DescriptionGraph",
    "Edge",
    "EdgeFamily",
    "EventKind",
    "Fact",
    "FactSyntaxError",
    "GraphCycleError",
    "HierarchyCycleError",
    "JoinAtom",
    "KnowledgeStore",
    "NodeKind",
    "PipelineResult",
    "Provenance",
    "build_kdg",
    "build_udg",
    "differential_check",
    "encode_program",
    "main_classes",
    "match_instances",
    "parse_fact_file",
    "parse_fact_path",
    "possible_next_events",
    "rooted_subgraph",
    "run_pipeline",
    "spatial_match",
    "subevent_closure",
    "synthesize_super_event",
]
