"""Model files: round trips preserve behaviour, serialization is stable (a
saved model loaded and saved again gives the same bytes), and malformed files
are rejected with ModelFormatError."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.dataset import MinMaxScaler
from flowlens.forest import ForestParams, train_forest
from flowlens.mlp import MlpParams, train_mlp
from flowlens.model_io import ModelFormatError, load_model, save_model


def _data(seed=0, n=50, p=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.random((n, p))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


def test_forest_round_trip(tmp_path):
    X, y = _data()
    forest = train_forest(X, y, ForestParams(n_trees=6, max_depth=4, seed=3))
    scaler = MinMaxScaler.fit(X)
    path = tmp_path / "f.json"
    save_model(path, forest, scaler=scaler, feature_names=["a", "b", "c", "d"],
               meta={"config_hash": "x", "seed": 3}, schema_fingerprint="fp")
    saved = load_model(path)
    assert saved.kind == "rf"
    assert saved.schema_fingerprint == "fp"
    assert saved.feature_names == ["a", "b", "c", "d"]
    assert np.allclose(saved.model.predict_proba(X), forest.predict_proba(X))
    assert np.allclose(saved.scaler.mins, scaler.mins)
    assert saved.model.params == forest.params


def test_mlp_round_trip(tmp_path):
    X, y = _data(seed=1)
    mlp = train_mlp(X, y, MlpParams(hidden=(5, 3), epochs=10, seed=2))
    path = tmp_path / "m.json"
    save_model(path, mlp, schema_fingerprint="fp2")
    saved = load_model(path)
    assert saved.kind == "mlp"
    assert saved.schema_fingerprint == "fp2"
    assert np.allclose(saved.model.predict_proba(X), mlp.predict_proba(X))
    assert saved.model.params == mlp.params
    assert saved.model.loss_history == mlp.loss_history


def test_serialization_bit_identical_for_fixed_seed(tmp_path):
    X, y = _data(seed=2)
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    save_model(p1, train_forest(X, y, ForestParams(n_trees=4, seed=9)))
    save_model(p2, train_forest(X, y, ForestParams(n_trees=4, seed=9)))
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_foreign_json(tmp_path):
    path = tmp_path / "n.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(ModelFormatError):
        load_model(path)


def _saved_doc(tmp_path, kind):
    X, y = _data(seed=4)
    if kind == "rf":
        model = train_forest(X, y, ForestParams(n_trees=3, max_depth=3, seed=1))
    else:
        model = train_mlp(X, y, MlpParams(hidden=(5, 3), epochs=2, seed=1))
    path = tmp_path / f"{kind}.json"
    save_model(path, model, scaler=MinMaxScaler.fit(X))
    return path, json.loads(path.read_text())


def _tree(doc):
    return doc["forest"]["trees"][0]


def _first_split(doc):
    return next(i for i, f in enumerate(_tree(doc)["feature"]) if f >= 0)


def _drop_prob(doc):
    del _tree(doc)["prob"]


def _short_threshold(doc):
    _tree(doc)["threshold"].pop()


def _child_to_root(doc):
    # a cycle: without the check, every walk that reaches it never ends
    _tree(doc)["left"][_first_split(doc)] = 0


def _child_out_of_range(doc):
    _tree(doc)["right"][_first_split(doc)] = len(_tree(doc)["feature"])


def _feature_too_wide(doc):
    _tree(doc)["feature"][_first_split(doc)] = doc["forest"]["n_features"]


def _drop_trees(doc):
    del doc["forest"]["trees"]


def _scaler_too_narrow(doc):
    doc["scaler"]["mins"].pop()


def _unknown_kind(doc):
    doc["kind"] = "svm"


def _nan_leaf_prob(doc):
    leaf = _tree(doc)["feature"].index(-1)
    _tree(doc)["prob"][leaf] = float("nan")


def _infinite_threshold(doc):
    _tree(doc)["threshold"][_first_split(doc)] = float("inf")


def _nan_scaler_max(doc):
    doc["scaler"]["maxs"][0] = float("nan")


@pytest.mark.parametrize("corrupt", [
    _drop_prob, _short_threshold, _child_to_root, _child_out_of_range,
    _feature_too_wide, _drop_trees, _scaler_too_narrow, _unknown_kind,
    _nan_leaf_prob, _infinite_threshold, _nan_scaler_max,
])
def test_malformed_forest_rejected(tmp_path, corrupt):
    path, doc = _saved_doc(tmp_path, "rf")
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=str(path.name)):
        load_model(path)


def _drop_biases(doc):
    del doc["mlp"]["biases"]


def _weights_do_not_chain(doc):
    doc["mlp"]["weights"][1] = doc["mlp"]["weights"][1][:-1]  # 5 -> 4 input rows


def _bias_too_short(doc):
    doc["mlp"]["biases"][0].pop()


def _ragged_weights(doc):
    doc["mlp"]["weights"][0][0].pop()


def _first_layer_too_wide(doc):
    doc["mlp"]["n_features"] += 1


def _two_outputs(doc):
    for row in doc["mlp"]["weights"][-1]:
        row.append(0.0)
    doc["mlp"]["biases"][-1].append(0.0)


def _nan_weight(doc):
    doc["mlp"]["weights"][0][0][0] = float("nan")


def _infinite_bias(doc):
    doc["mlp"]["biases"][-1][0] = float("-inf")


@pytest.mark.parametrize("corrupt", [
    _drop_biases, _weights_do_not_chain, _bias_too_short, _ragged_weights,
    _first_layer_too_wide, _two_outputs, _nan_weight, _infinite_bias,
])
def test_malformed_mlp_rejected(tmp_path, corrupt):
    path, doc = _saved_doc(tmp_path, "mlp")
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=str(path.name)):
        load_model(path)


def test_cyclic_tree_model_exits_2(tmp_path, capsys):
    # eval with such a model used to loop forever in the first tree walk
    from flowlens.cli import main

    assert main(["synth", "--out-dir", str(tmp_path), "--benign-http", "4",
                 "--benign-dns", "2", "--flood-flows", "3", "--dos-flows", "2"]) == 0
    features, labeled = tmp_path / "f.csv", tmp_path / "l.csv"
    assert main(["extract", "--pcap", str(tmp_path / "synth.pcap"), "--schema",
                 "netflow_v2", "--out", str(features)]) == 0
    assert main(["label", "--features", str(features), "--events",
                 str(tmp_path / "ground_truth.csv"), "--out", str(labeled)]) == 0
    model = tmp_path / "rf.json"
    assert main(["train", "--data", str(labeled), "--model", "rf", "--trees", "2",
                 "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    _child_to_root(doc)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--data", str(labeled), "--model-file", str(model),
                 "--out-dir", str(tmp_path)]) == 2
    assert "child index" in capsys.readouterr().err


FOREST_PARAMS = st.builds(
    ForestParams, n_trees=st.integers(1, 3), max_depth=st.integers(0, 5),
    min_samples_split=st.integers(2, 6),
    feature_subsample=st.one_of(st.just("sqrt"), st.floats(0.01, 1.0)),
    seed=st.integers(0, 2**32 - 1), bootstrap=st.booleans())
MLP_PARAMS = st.builds(
    MlpParams, hidden=st.lists(st.integers(1, 5), max_size=3).map(tuple),
    learning_rate=st.floats(1e-4, 0.1), epochs=st.integers(0, 3),
    batch_size=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(params=st.one_of(FOREST_PARAMS, MLP_PARAMS), data_seed=st.integers(0, 99))
def test_save_load_save_is_byte_identical(tmp_path_factory, params, data_seed):
    X, y = _data(seed=data_seed, n=30, p=3)
    train = train_forest if isinstance(params, ForestParams) else train_mlp
    model = train(X, y, params)
    tmp = tmp_path_factory.mktemp("model")
    first, second = tmp / "first.json", tmp / "second.json"
    save_model(first, model, scaler=MinMaxScaler.fit(X), feature_names=["a", "b", "c"],
               meta={"config_hash": "x", "seed": data_seed}, schema_fingerprint="fp")
    saved = load_model(first)
    assert saved.model.params == params
    save_model(second, saved.model, scaler=saved.scaler, feature_names=saved.feature_names,
               meta=saved.meta, schema_fingerprint=saved.schema_fingerprint)
    assert second.read_bytes() == first.read_bytes()
