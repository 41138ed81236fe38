"""Structured prediction with jointly learned feature-template weights.

Linear-chain taggers and edge-factored dependency parsers share one
trainer: a 1-slack cutting-plane loop whose inner subproblem also fits a
simplex weighting over feature-template groups, so uninformative templates
are suppressed instead of diluting the model.
"""

from .corpus import (
    CorpusFormatError,
    DependencyInstance,
    LabelTable,
    SequenceInstance,
    read_dependency_corpus,
    read_sequence_corpus,
    write_dependency_corpus,
    write_sequence_corpus,
)
from .dependency import (
    DependencyTask,
    cle_decode,
    default_edge_templates,
    eisner_decode,
    is_arborescence,
    is_projective,
    parse_edge_templates,
)
from .metrics import (
    LabelCodec,
    evaluate_dependency,
    evaluate_sequence,
)
from .model import Model, ModelFormatError
from .sequence import SequenceTask, loss_augmented_decode, viterbi_decode
from .solver import SolverConfig, TrainResult, solve_subproblem, train
from .templates import TemplateError, parse_templates

__version__ = "0.1.0"

__all__ = [
    "CorpusFormatError",
    "DependencyInstance",
    "DependencyTask",
    "LabelCodec",
    "LabelTable",
    "Model",
    "ModelFormatError",
    "SequenceInstance",
    "SequenceTask",
    "SolverConfig",
    "TemplateError",
    "TrainResult",
    "cle_decode",
    "default_edge_templates",
    "eisner_decode",
    "evaluate_dependency",
    "evaluate_sequence",
    "is_arborescence",
    "is_projective",
    "loss_augmented_decode",
    "parse_edge_templates",
    "parse_templates",
    "read_dependency_corpus",
    "read_sequence_corpus",
    "solve_subproblem",
    "train",
    "viterbi_decode",
    "write_dependency_corpus",
    "write_sequence_corpus",
    "__version__",
]
