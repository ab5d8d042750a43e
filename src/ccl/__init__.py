"""Compression-based classification of cellular automata and small Turing
machines.

Evolve a machine, serialize the space-time diagram canonically, and let a
pinned DEFLATE compressor approximate its program-size complexity; sorting,
clustering, and differencing those lengths then recovers behavioral
classes, phase-transition profiles, and sensitivity coefficients.
"""

__version__ = "0.1.0"

from .automaton import (CA, TM, RuleSpec, SpaceTimeDiagram, evolve_ca,
                        reached_states_sequence, state_sequence)
from .classify import (ClassificationEntry, classify_eca, cluster_1d,
                       rank_rules, sample_rule_space)
from .complexity import (COMPRESSOR, ComplexityEstimate, ca_complexity,
                         compressed_length, deflate, encode_diagram,
                         encode_sequence, prefix_compressed_lengths,
                         tm_complexity)
from .initcond import initial_condition, initial_condition_number
from .transition import (InterestingIcs, TransitionRecord,
                         characteristic_exponent, coefficient_classification,
                         detect_spikes, ic_profile,
                         interesting_initial_conditions, least_squares_fit,
                         transition_record)

__all__ = [
    "CA", "TM", "RuleSpec", "SpaceTimeDiagram", "evolve_ca",
    "reached_states_sequence", "state_sequence",
    "initial_condition", "initial_condition_number",
    "COMPRESSOR", "ComplexityEstimate",
    "deflate", "compressed_length", "prefix_compressed_lengths",
    "encode_diagram", "encode_sequence",
    "ca_complexity", "tm_complexity",
    "ClassificationEntry", "rank_rules", "cluster_1d", "classify_eca",
    "sample_rule_space", "TransitionRecord", "InterestingIcs",
    "ic_profile", "detect_spikes", "characteristic_exponent",
    "least_squares_fit", "transition_record", "interesting_initial_conditions",
    "coefficient_classification",
    "__version__",
]
