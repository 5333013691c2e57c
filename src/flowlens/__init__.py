"""flowlens: flow feature extraction, binary traffic classifiers, and
Shapley-value model explanations for packet captures."""

from .dataset import (FeatureTable, GroundTruthEvent, LabeledDataset,
                      MinMaxScaler, drop_identifiers, kfold_split, label_flows,
                      label_table)
from .evaluation import (ConfusionMatrix, EvaluationReport, ModelSpec,
                         binary_metrics, crossval_evaluate,
                         measure_prediction_time, roc_auc)
from .explain import (CoalitionValueFunction, Explanation, GlobalRanking,
                      compile_tree_shap, exact_shapley, explain_samples,
                      global_ranking, kernel_shap, tree_shap)
from .features import compute_cic_features, compute_features, compute_netflow_features
from .flows import FlowKey, FlowRecord, assemble_flows
from .forest import Forest, ForestParams, train_forest
from .mlp import Mlp, MlpParams, mlp_gradient, train_mlp
from .model_io import load_model, save_model
from .pcap import PacketRecord, ParseStats, parse_pcap, write_pcap
from .schema import FeatureSchema, load_schema
from .synth import ScenarioParams, generate_scenario

__version__ = "0.1.0"

__all__ = [
    "CoalitionValueFunction", "ConfusionMatrix", "EvaluationReport",
    "Explanation", "FeatureSchema", "FeatureTable", "FlowKey", "FlowRecord",
    "Forest", "ForestParams", "GlobalRanking", "GroundTruthEvent",
    "LabeledDataset", "MinMaxScaler", "Mlp", "MlpParams", "ModelSpec",
    "PacketRecord", "ParseStats", "ScenarioParams", "assemble_flows",
    "binary_metrics", "compile_tree_shap", "compute_cic_features",
    "compute_features", "compute_netflow_features", "crossval_evaluate",
    "drop_identifiers", "exact_shapley", "explain_samples", "generate_scenario",
    "global_ranking", "kernel_shap", "kfold_split", "label_flows",
    "label_table", "load_model", "load_schema", "measure_prediction_time",
    "mlp_gradient", "parse_pcap", "roc_auc", "save_model", "train_forest",
    "train_mlp", "tree_shap", "write_pcap",
]
