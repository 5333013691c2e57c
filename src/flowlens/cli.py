"""Command-line pipeline: synth, extract, label, train, eval, explain, report.

Every artifact embeds the effective configuration hash and seed, and every
stage is deterministic for a fixed configuration, so reruns are byte-identical,
except eval reports, which embed the measured prediction time.

Exit codes: 0 ok, 2 input error, 3 consistency error (a model file trained
on other feature columns than the data's), 1 internal error. Seed precedence:
--seed flag, then the config file, then the FLOWLENS_SEED environment
variable, then the default.

Each subcommand imports only the modules it uses: extract and label run
without importing numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from contextlib import contextmanager
from importlib import import_module
from itertools import islice
from pathlib import Path

from . import dataset as ds_mod
from .features import compute_features
from .flows import (DEFAULT_ACTIVE_TIMEOUT, DEFAULT_ACTIVITY_TIMEOUT,
                    DEFAULT_IDLE_TIMEOUT, assemble_flows)
from .pcap import ParseStats, PcapFormatError, parse_pcap, write_pcap
from .schema import (FeatureSchema, FingerprintMismatch, ModelFormatError, SchemaError,
                     load_schema)
from .util import (FOREST_RULES, MLP_RULES, LazyItems, at_least, config_hash, meta_line,
                   timeout_seconds)

# Names from numpy and the modules that import it, bound on first use by
# __getattr__, so that extract and label never import numpy. Commands read
# them through ``_cli``, this module, so a value already set on the module
# (a tracer's wrapper, say) is the one they call.
_LAZY = {
    "np": ("numpy", None),
    "explain_mod": (".explain", None),
    "report_mod": (".report", None),
    "EvaluationReport": (".evaluation", "EvaluationReport"),
    "crossval_evaluate": (".evaluation", "crossval_evaluate"),
    "evaluate_split": (".evaluation", "evaluate_split"),
    "train_model": (".evaluation", "train_model"),
    "ForestParams": (".forest", "ForestParams"),
    "DivergenceError": (".mlp", "DivergenceError"),
    "MlpParams": (".mlp", "MlpParams"),
    "load_model": (".model_io", "load_model"),
    "save_model": (".model_io", "save_model"),
    "ScenarioParams": (".synth", "ScenarioParams"),
    "generate_scenario": (".synth", "generate_scenario"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _LAZY[name]
    value = import_module(module, __package__)
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]

DEFAULT_SEED = 7
SEED_ENV_VAR = "FLOWLENS_SEED"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_CONSISTENCY = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config = {}
    try:
        text = _require_file(path, "config file").read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise CliError(f"{path}:{lineno}: expected key=value")
        k, v = body.split("=", 1)
        config[k.strip()] = v.strip()
    return config


class Settings:
    """CLI values with config-file fallback and provenance hashing."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config_file(getattr(args, "config", None))
        self.effective: dict[str, object] = {"command": args.command}

    def get(self, key: str, default, cast):
        """The flag, else the config value, else ``default``, through ``cast``.
        A value that ``cast`` refuses is an input error naming the setting."""
        value = getattr(self.args, key, None)
        if value is None and key in self.config:
            value = self.config[key]
        if value is None:
            value = default
        try:
            value = cast(value)
        except ValueError as exc:
            raise CliError(f"setting {key}={value}: {exc}") from exc
        self.effective[key] = value
        return value

    def seed(self) -> int:
        return self.get("seed", os.environ.get(SEED_ENV_VAR) or DEFAULT_SEED, at_least(0))

    def provenance(self) -> dict:
        return {"config_hash": config_hash(self.effective),
                "seed": self.effective.get("seed", DEFAULT_SEED)}


def _layer_sizes(value) -> str:
    """Comma-separated hidden layer sizes, kept as text, which provenance hashes."""
    MLP_RULES["hidden"](size for size in str(value).split(",") if size)
    return str(value)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not found: {path}")
    return p


def _out_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _check_output(path: str, directory: bool):
    """Refuse an output path that cannot be written, before the work that
    fills it, and create nothing, so that a later input error leaves no
    empty output behind: a directory where a file goes, a file whose
    directory does not exist, or a file where a directory goes."""
    p = Path(path)
    if directory:
        # The nearest part of the path that exists; _out_dir makes the rest.
        found = next(d for d in (p, *p.parents) if d.exists())
        if not found.is_dir():
            raise CliError(f"cannot make directory {path}: {found} is not a directory")
    elif p.is_dir():
        raise CliError(f"cannot write {path}: it is a directory")
    elif not p.parent.is_dir():
        raise CliError(f"cannot write {path}: directory {p.parent} does not exist")


# --- subcommands ---------------------------------------------------------------

def cmd_synth(args) -> int:
    st = Settings(args)
    seed = st.seed()
    scenario = _cli.ScenarioParams
    params = scenario(
        benign_http=st.get("benign_http", scenario.benign_http, at_least(0)),
        benign_dns=st.get("benign_dns", scenario.benign_dns, at_least(0)),
        flood_flows=st.get("flood_flows", scenario.flood_flows, at_least(0)),
        dos_flows=st.get("dos_flows", scenario.dos_flows, at_least(0)),
        seed=seed,
    )
    out = _out_dir(args.out_dir)
    packets, events = _cli.generate_scenario(params)
    with open(out / "synth.pcap", "wb") as fh:
        write_pcap(fh, packets)
    ds_mod.write_events_csv(out / "ground_truth.csv", events, meta=st.provenance())
    print(f"wrote {len(packets)} packets and {len(events)} events to {out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    st = Settings(args)
    st.seed()
    idle = st.get("idle_timeout", DEFAULT_IDLE_TIMEOUT, timeout_seconds)
    active = st.get("active_timeout", DEFAULT_ACTIVE_TIMEOUT, timeout_seconds)
    activity = st.get("activity_timeout", DEFAULT_ACTIVITY_TIMEOUT, timeout_seconds)
    # A constant that says nothing about how features are computed (see
    # parts.write_in_parts). It stays in the hashed settings so that every
    # feature CSV keeps the config_hash it had when extract took --threads.
    st.effective["threads"] = 1
    st.effective["schema"] = args.schema
    schema = load_schema(args.schema)
    _check_output(args.out, directory=False)

    pcap_path = _require_file(args.pcap, "pcap file")
    with open(pcap_path, "rb") as fh:
        stats = ParseStats()
        flows = assemble_flows(parse_pcap(fh, stats), idle_timeout=idle, active_timeout=active)
    # Rows are computed a part at a time as the writer asks for them, so
    # only one block of them is alive at a time, never the whole table.
    rows = LazyItems(len(flows), lambda start, stop: (
        compute_features(flow, schema, activity_timeout=activity)
        for flow in islice(flows, start, stop)))
    meta = st.provenance()
    meta["schema"] = schema.name
    meta["schema_version"] = schema.version
    ds_mod.write_feature_csv(args.out, schema, rows, meta=meta)
    skipped = f"{stats.skipped} skipped"
    if stats.skipped:
        skipped += ": " + ", ".join(f"{r}={n}" for r, n in sorted(stats.reasons.items()))
    print(f"decoded {stats.packets} packets ({skipped}), {len(flows)} flows -> {args.out}")
    return EXIT_OK


def cmd_label(args) -> int:
    st = Settings(args)
    st.seed()
    _check_output(args.out, directory=False)
    table, _ = ds_mod.read_feature_csv(_require_file(args.features, "feature CSV"))
    events = ds_mod.read_events_csv(_require_file(args.events, "ground truth CSV"))
    stats = ds_mod.LabelStats()
    labeled = ds_mod.label_table(table, events, stats)
    ds_mod.write_labeled_csv(args.out, labeled, meta=st.provenance())
    print(f"labeled {len(labeled.labels)} flows ({stats.attacks} attacks, "
          f"{stats.conflicts} conflicting matches) -> {args.out}")
    return EXIT_OK


def _read_labeled(path: str, both_classes: bool) -> tuple[FeatureSchema, np.ndarray, np.ndarray]:
    """The schema, learnable matrix and labels of the labeled CSV at ``path``.
    One without rows is an input error, and so is one without both classes
    where a classifier is fitted or scored."""
    schema, X, y, _ = ds_mod.read_labeled_matrix(_require_file(path, "labeled CSV"))
    if not len(y):
        raise CliError(f"{path}: labeled CSV has no rows")
    if both_classes and y.min() == y.max():
        raise CliError(f"{path}: labeled CSV holds one class only; "
                       "training and evaluation need benign and attack rows")
    return schema, X, y


def _model_params(st: Settings, seed: int) -> ForestParams | MlpParams:
    """The params of the ``--model`` kind. Every model setting is read, and
    hashed into provenance, whichever kind it is."""
    kind = st.args.model
    st.effective["model"] = kind
    ForestParams, MlpParams = _cli.ForestParams, _cli.MlpParams
    forest = ForestParams(
        n_trees=st.get("trees", ForestParams.n_trees, FOREST_RULES["n_trees"]),
        max_depth=st.get("max_depth", ForestParams.max_depth, FOREST_RULES["max_depth"]),
        min_samples_split=st.get("min_samples_split", ForestParams.min_samples_split,
                                 FOREST_RULES["min_samples_split"]),
        feature_subsample=st.get("feature_fraction", ForestParams.feature_subsample,
                                 FOREST_RULES["feature_subsample"]),
        seed=seed,
    )
    hidden = st.get("hidden", ",".join(map(str, MlpParams.hidden)), _layer_sizes)
    mlp = MlpParams(
        hidden=tuple(int(h) for h in hidden.split(",") if h),
        learning_rate=st.get("learning_rate", MlpParams.learning_rate, MLP_RULES["learning_rate"]),
        epochs=st.get("epochs", MlpParams.epochs, MLP_RULES["epochs"]),
        batch_size=st.get("batch_size", MlpParams.batch_size, MLP_RULES["batch_size"]),
        seed=seed,
    )
    return forest if kind == "rf" else mlp


@contextmanager
def _learning_rate_blamed(st: Settings):
    """An MLP fit that diverges is an input error in the ``learning_rate``
    setting: the data are finite and scaled, so the step size is the cause."""
    try:
        yield
    except _cli.DivergenceError as exc:
        raise CliError(f"setting learning_rate={st.effective['learning_rate']}: {exc}") from exc


def cmd_train(args) -> int:
    st = Settings(args)
    seed = st.seed()
    _check_output(args.out, directory=False)
    schema, X_raw, y = _read_labeled(args.data, both_classes=True)
    params = _model_params(st, seed)

    scaler = ds_mod.MinMaxScaler.fit(X_raw)
    with _learning_rate_blamed(st):
        model = _cli.train_model(scaler.transform(X_raw), y, params)
    _cli.save_model(args.out, model, scaler=scaler,
                    feature_names=schema.learnable_names, meta=st.provenance())
    print(f"trained {args.model} on {len(X_raw)} rows -> {args.out}")
    return EXIT_OK


def _write_report_files(out_dir: Path, stem: str, report, provenance: dict):
    report_mod = _cli.report_mod
    base = out_dir / stem
    report_mod.write_report_csv(f"{base}_report.csv", report, meta=provenance)
    report_mod.write_report_jsonl(f"{base}_report.jsonl", report, meta=provenance)
    label = f"{report.dataset_name} [{report.feature_set}] {report.model_name}"
    table = report_mod.render_metrics_table([(label, report.means())])
    Path(f"{base}_report.txt").write_text(table, encoding="utf-8")


def _load_saved_model(st: Settings, path: str, schema: FeatureSchema):
    """Load the model file at ``path`` for data of ``schema``; refuse one
    trained on other feature columns. Provenance records the sha256 of the
    file's bytes, not its path."""
    model_file = _require_file(path, "model file")
    st.effective["model_file"] = hashlib.sha256(model_file.read_bytes()).hexdigest()
    saved = _cli.load_model(model_file)
    if saved.feature_names != schema.learnable_names:
        raise FingerprintMismatch(
            f"model file {model_file} was trained on other feature columns: it takes "
            f"{len(saved.feature_names)}, the data has {len(schema.learnable_names)} "
            "learnable columns")
    return saved


def cmd_eval(args) -> int:
    st = Settings(args)
    seed = st.seed()
    timing_rows = st.get("timing_rows", 256, at_least(1))
    timing_repeats = st.get("timing_repeats", 3, at_least(1))
    _check_output(args.out_dir, directory=True)
    schema, X, y = _read_labeled(args.data, both_classes=True)
    dataset_name = Path(args.data).stem

    if args.model_file:
        saved = _load_saved_model(st, args.model_file, schema)
        fold = _cli.evaluate_split(saved.model, saved.scaler, X, y,
                                   timing_rows=timing_rows, timing_repeats=timing_repeats)
        report = _cli.EvaluationReport(dataset_name=dataset_name, model_name=saved.kind,
                                       seed=seed, k=1, folds=[fold], feature_set=schema.name)
        stem = f"{dataset_name}_{saved.kind}_saved"
    else:
        if not args.model:
            raise CliError("eval needs --model or --model-file")
        k = st.get("folds", 5, at_least(2))
        attacks = int(y.sum())
        rare = min(attacks, len(y) - attacks)
        if k > rare:
            raise CliError(f"setting folds={k}: must be at most {rare}, "
                           f"the rows of the rarer class in {args.data}")
        params = _model_params(st, seed)
        with _learning_rate_blamed(st):
            report = _cli.crossval_evaluate(
                X, y, params, k=k, seed=seed, dataset_name=dataset_name,
                timing_rows=timing_rows, timing_repeats=timing_repeats,
                feature_set=schema.name,
            )
        stem = f"{dataset_name}_{args.model}"
    _write_report_files(_out_dir(args.out_dir), stem, report, st.provenance())
    means = report.means()
    print(f"{stem}: mean f1={means['f1']:.4f} dr={means['dr']:.4f} "
          f"far={means['far']:.4f} auc={means['auc']:.4f} "
          f"time={means['prediction_time_micros']:.2f}us")
    return EXIT_OK


def cmd_explain(args) -> int:
    st = Settings(args)
    seed = st.seed()
    samples = st.get("samples", 500, at_least(1))
    background_size = st.get("background", 100, at_least(1))
    budget = st.get("budget", 2048, int)
    _check_output(args.out_dir, directory=True)
    schema, X, _ = _read_labeled(args.data, both_classes=False)
    saved = _load_saved_model(st, args.model_file, schema)

    explain_mod, np = _cli.explain_mod, _cli.np

    method = args.method or ("tree" if saved.kind == "rf" else "kernel")
    st.effective["method"] = method
    if method == "tree" and saved.kind != "rf":
        raise CliError("setting method=tree: needs a forest model, the model is an MLP")
    if method == "kernel":
        try:
            explain_mod.check_coalition_budget(budget, saved.model.n_features)
        except ValueError as exc:
            raise CliError(f"setting budget={budget}: {exc}") from exc

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    bg_idx = rng.choice(len(X), size=min(background_size, len(X)), replace=False)
    ex_idx = rng.choice(len(X), size=min(samples, len(X)), replace=False)
    # Scaling works row by row, so only the sampled rows are scaled.
    background = saved.scaler.transform(X[np.sort(bg_idx)])
    explain_rows = saved.scaler.transform(X[np.sort(ex_idx)])

    explanations = explain_mod.explain_samples(
        saved.model, explain_rows, background, method=method,
        coalition_budget=budget, seed=seed,
    )
    ranking = explain_mod.global_ranking(explanations, schema.learnable_names)

    out = _out_dir(args.out_dir)
    stem = f"{Path(args.data).stem}_{saved.kind}_{method}"
    provenance = st.provenance()
    report_mod = _cli.report_mod
    report_mod.write_explanations_jsonl(out / f"{stem}_explanations.jsonl",
                                        explanations, seed=seed, meta=provenance)
    report_mod.write_ranking_csv(out / f"{stem}_ranking.csv", ranking, meta=provenance)
    names = ", ".join(name for _, name, _, _ in ranking.top(5))
    print(f"explained {len(explanations)} samples ({method}); top features: {names}")
    return EXIT_OK


def cmd_report(args) -> int:
    st = Settings(args)
    st.seed()
    top_k = st.get("top_k", 20, at_least(1))
    report_mod = _cli.report_mod
    reports = [report_mod.read_report_csv(_require_file(p, "report CSV"))
               for p in (args.reports or [])]
    rankings = [(Path(p).stem, report_mod.read_ranking_csv(_require_file(p, "ranking CSV")))
                for p in (args.rankings or [])]
    if not reports and not rankings:
        raise CliError("report needs at least one --reports or --rankings input")
    out = _out_dir(args.out_dir)
    provenance = st.provenance()
    meta_comment = meta_line(provenance).removeprefix("# ")

    written = []
    if reports:
        rows = [(f"{r.dataset_name} [{r.feature_set}] {r.model_name}", r.means())
                for r in reports]
        table = report_mod.render_metrics_table(rows, title="Mean cross-validated metrics")
        (out / "metrics_table.txt").write_text(table, encoding="utf-8")
        written.append("metrics_table.txt")
        for model in sorted({r.model_name for r in reports}):
            subset = [r for r in reports if r.model_name == model]
            svg = report_mod.f1_chart(subset, title=f"F1 score by dataset ({model})",
                                      meta=meta_comment)
            name = f"f1_{model}.svg"
            (out / name).write_text(svg, encoding="utf-8")
            written.append(name)
    for stem, (features, _, normalized) in rankings:
        svg = report_mod.ranking_chart(features, normalized,
                                       title=f"Top {top_k} features: {stem}",
                                       k=top_k, meta=meta_comment)
        name = f"{stem}_top{top_k}.svg"
        (out / name).write_text(svg, encoding="utf-8")
        written.append(name)
    print(f"wrote {', '.join(written)} to {out}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlens",
        description="Flow feature extraction, traffic classifiers, and "
                    "Shapley-value explanations for packet captures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--seed", type=int, help="master seed (default 7, or FLOWLENS_SEED)")

    p = sub.add_parser("synth", help="generate the synthetic test pcap and ground truth")
    common(p)
    p.add_argument("--out-dir", required=True, help="directory for synth.pcap and ground_truth.csv")
    p.add_argument("--benign-http", type=int, help="number of benign request/response flows")
    p.add_argument("--benign-dns", type=int, help="number of benign two-packet exchanges")
    p.add_argument("--flood-flows", type=int, help="number of half-open flood flows")
    p.add_argument("--dos-flows", type=int, help="number of high-rate repetitive flows")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="pcap -> per-flow feature CSV")
    common(p)
    p.add_argument("--pcap", required=True, help="input capture file")
    p.add_argument("--schema", required=True, choices=["netflow_v2", "cic"],
                   help="feature schema to compute")
    p.add_argument("--out", required=True, help="output feature CSV path")
    p.add_argument("--idle-timeout", type=float, help="flow idle timeout, seconds (default 15)")
    p.add_argument("--active-timeout", type=float, help="flow active timeout, seconds (default 120)")
    p.add_argument("--activity-timeout", type=float,
                   help="gap that starts an idle period, seconds (default 5)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("label", help="attach ground-truth labels to a feature CSV")
    common(p)
    p.add_argument("--features", required=True, help="feature CSV from extract")
    p.add_argument("--events", required=True, help="ground truth CSV")
    p.add_argument("--out", required=True, help="output labeled CSV path")
    p.set_defaults(func=cmd_label)

    def model_flags(p):
        p.add_argument("--trees", type=int, help="forest size (default 100)")
        p.add_argument("--max-depth", type=int, help="tree depth limit (default 16)")
        p.add_argument("--min-samples-split", type=int, help="minimum node size to split (default 2)")
        p.add_argument("--feature-fraction",
                       help="fraction of features per split, or 'sqrt' (default)")
        p.add_argument("--hidden", help="comma-separated hidden layer sizes (default 64,32,16)")
        p.add_argument("--learning-rate", type=float, help="gradient step size (default 0.05)")
        p.add_argument("--epochs", type=int, help="training epochs (default 60)")
        p.add_argument("--batch-size", type=int, help="mini-batch size (default 32)")

    p = sub.add_parser("train", help="train a model on a labeled CSV and save it")
    common(p)
    p.add_argument("--data", required=True, help="labeled CSV from label")
    p.add_argument("--model", required=True, choices=["rf", "mlp"], help="model kind")
    p.add_argument("--out", required=True, help="output model JSON path")
    model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cross-validated evaluation, or evaluate a saved model")
    common(p)
    p.add_argument("--data", required=True, help="labeled CSV from label")
    p.add_argument("--model", choices=["rf", "mlp"], help="model kind to train per fold")
    p.add_argument("--model-file", help="saved model JSON to evaluate instead of training")
    p.add_argument("--folds", type=int, help="cross-validation folds (default 5)")
    p.add_argument("--out-dir", required=True, help="directory for report files")
    p.add_argument("--timing-rows", type=int, help="rows used to time single-sample prediction")
    p.add_argument("--timing-repeats", type=int, help="timing repeats; the median is reported")
    model_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="Shapley attributions and global feature ranking")
    common(p)
    p.add_argument("--data", required=True, help="labeled CSV from label")
    p.add_argument("--model-file", required=True, help="saved model JSON from train")
    p.add_argument("--method", choices=["tree", "kernel"],
                   help="attribution engine (default: tree for forests, kernel otherwise)")
    p.add_argument("--samples", type=int, help="rows to explain (default 500)")
    p.add_argument("--background", type=int, help="background set size (default 100)")
    p.add_argument("--budget", help="kernel coalition budget, from the feature count plus 2 "
                                    "to 1048576 (default 2048)")
    p.add_argument("--out-dir", required=True, help="directory for explanation artifacts")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("report", help="render metric tables and SVG charts")
    common(p)
    p.add_argument("--reports", nargs="*", help="report CSVs from eval")
    p.add_argument("--rankings", nargs="*", help="ranking CSVs from explain")
    p.add_argument("--out-dir", required=True, help="directory for rendered outputs")
    p.add_argument("--top-k", type=int, help="features per ranking chart (default 20)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FingerprintMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (OSError, PcapFormatError, SchemaError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    # Run as a script (``python -m flowlens.cli``, or under ``cProfile -m``),
    # this file is not the module ``flowlens.cli``, whose attributes ``_cli``
    # reads; call main of the imported one.
    from flowlens.cli import main as cli_main

    sys.exit(cli_main())
