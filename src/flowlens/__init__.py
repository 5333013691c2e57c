"""flowlens: flow feature extraction, binary traffic classifiers, and
Shapley-value model explanations for packet captures.

The public names are imported on first access (PEP 562), so ``import
flowlens`` loads no submodule, and a command that needs no numpy does not
import it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "FeatureTable": "dataset", "GroundTruthEvent": "dataset",
    "LabeledDataset": "dataset", "MinMaxScaler": "dataset",
    "drop_identifiers": "dataset", "kfold_split": "dataset",
    "label_table": "dataset",
    "ConfusionMatrix": "evaluation", "EvaluationReport": "evaluation",
    "ModelSpec": "evaluation", "binary_metrics": "evaluation",
    "crossval_evaluate": "evaluation", "measure_prediction_time": "evaluation",
    "roc_auc": "evaluation",
    "CoalitionValueFunction": "explain", "Explanation": "explain",
    "GlobalRanking": "explain", "compile_tree_shap": "explain",
    "exact_shapley": "explain", "explain_samples": "explain",
    "global_ranking": "explain", "kernel_shap": "explain", "tree_shap": "explain",
    "compute_cic_features": "features", "compute_features": "features",
    "compute_netflow_features": "features",
    "FlowKey": "flows", "FlowRecord": "flows", "assemble_flows": "flows",
    "Forest": "forest", "ForestParams": "forest", "train_forest": "forest",
    "Mlp": "mlp", "MlpParams": "mlp", "mlp_gradient": "mlp", "train_mlp": "mlp",
    "load_model": "model_io", "save_model": "model_io",
    "PacketRecord": "pcap", "ParseStats": "pcap", "parse_pcap": "pcap",
    "write_pcap": "pcap",
    "FeatureSchema": "schema", "load_schema": "schema",
    "ScenarioParams": "synth", "generate_scenario": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
