"""Generative structured prediction over trees and tag sequences with an
unbounded-depth vertical-context model smoothed by a hierarchical
Pitman-Yor process, plus CYK / best-first / MCMC decoders and treebank
evaluation tooling."""

from .grammar import Grammar, Rule, Sym
from .trees import Tree, read_tree, read_treebank, write_tree
from .transforms import binarize_right, pos_to_tree, tree_to_pos, unbinarize_right
from .signatures import replace_rare_words, word_signature
from .events import Event, extract_events
from .hpyp import BaseDistribution, ContextTrie, DepthParams
from .optimize import optimize_params
from .pcfg import Pcfg, cyk_viterbi, estimate_mle, inside, sample_tree
from .hypergraph import Hypergraph, build_hypergraph
from .astar import astar_parse, completion_estimate
from .mcmc import SampleStats, mbr_decode, mh_sample
from .metrics import exact_match, labelled_f1, sentence_accuracy, token_accuracy
from .config import RunConfig
from .model import TrainedModel, train_model
from .serialize import load_model, load_model_file, save_model, save_model_file

__all__ = [
    "Grammar",
    "Rule",
    "Sym",
    "Tree",
    "read_tree",
    "read_treebank",
    "write_tree",
    "binarize_right",
    "unbinarize_right",
    "pos_to_tree",
    "tree_to_pos",
    "replace_rare_words",
    "word_signature",
    "Event",
    "extract_events",
    "BaseDistribution",
    "ContextTrie",
    "DepthParams",
    "optimize_params",
    "Pcfg",
    "estimate_mle",
    "inside",
    "cyk_viterbi",
    "sample_tree",
    "Hypergraph",
    "build_hypergraph",
    "astar_parse",
    "completion_estimate",
    "SampleStats",
    "mh_sample",
    "mbr_decode",
    "labelled_f1",
    "exact_match",
    "token_accuracy",
    "sentence_accuracy",
    "RunConfig",
    "TrainedModel",
    "train_model",
    "save_model",
    "load_model",
    "save_model_file",
    "load_model_file",
]

__version__ = "0.1.0"
