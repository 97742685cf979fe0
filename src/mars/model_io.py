"""On-disk model format (single JSON document) and rule pretty-printing."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .data import FeatureSpec
from .errors import ModelFormatError
from .model import Condition, Rule, RuleSet
from .scoring import HYPER_KEYS, Hyperparams, Score

FORMAT_VERSION = 1


@dataclass
class Model:
    """A trained classifier plus everything needed to reapply it."""

    features: tuple[FeatureSpec, ...]
    rules: RuleSet
    hyper: Hyperparams
    label_name: str
    metadata: dict

    @property
    def vocab_sizes(self) -> tuple[int, ...]:
        return tuple(f.vocab_size for f in self.features)


def _feature_to_json(f: FeatureSpec) -> dict:
    out = {"name": f.name, "kind": f.kind}
    if f.kind == "categorical":
        out["values"] = list(f.categories)
    else:
        out["intervals"] = [[lo, hi] for lo, hi in f.intervals]
    return out


def _feature_from_json(fid: int, blob: dict) -> FeatureSpec:
    if not isinstance(blob, dict):
        raise ModelFormatError(f"feature {fid}: not a JSON object")
    kind = blob.get("kind")
    if kind == "categorical":
        return FeatureSpec(fid, blob["name"], "categorical", categories=tuple(blob["values"]))
    if kind == "numeric":
        return FeatureSpec(
            fid, blob["name"], "numeric", intervals=tuple((lo, hi) for lo, hi in blob["intervals"])
        )
    raise ModelFormatError(f"feature {blob.get('name')!r}: unknown kind {kind!r}")


def save_model(
    path,
    features: Sequence[FeatureSpec],
    rules: RuleSet,
    hyper: Hyperparams,
    label_name: str,
    training_meta: dict,
) -> None:
    """Write the model as a versioned, human-auditable JSON document."""
    name_of = {f.feature_id: f.name for f in features}
    doc = {
        "format_version": FORMAT_VERSION,
        "label": label_name,
        "features": [_feature_to_json(f) for f in features],
        "rules": [
            [[name_of[c.feature_id], list(c.values)] for c in rule.conditions]
            for rule in rules.rules
        ],
        "hyperparams": asdict(hyper),
        "training": training_meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError(f"{path}: not a model file")
    version = doc["format_version"]
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format version {version} not supported (this build reads {FORMAT_VERSION})"
        )
    try:
        features = tuple(_feature_from_json(fid, blob) for fid, blob in enumerate(doc["features"]))
        fid_of = {f.name: f.feature_id for f in features}
        if len(fid_of) != len(features):
            raise ModelFormatError(f"{path}: two features share a name")
        rules = RuleSet(
            tuple(
                Rule(tuple(Condition(fid_of[name], tuple(values)) for name, values in conds))
                for conds in doc["rules"]
            )
        )
        hp = doc["hyperparams"]
        hyper = Hyperparams(**{k: hp[k] for k in HYPER_KEYS})
        label = doc["label"]
        meta = doc.get("training", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from exc
    if hyper.n_features != len(features):
        raise ModelFormatError(
            f"{path}: theta has {hyper.n_features} entries for {len(features)} features"
        )
    for rule in rules.rules:
        for cond in rule.conditions:
            name = features[cond.feature_id].name
            if any(type(v) is not int for v in cond.values):
                raise ModelFormatError(
                    f"{path}: rule condition on {name!r} has a non-integer value index"
                )
            vocab = features[cond.feature_id].vocab_size
            if cond.values[-1] >= vocab or cond.n_values >= vocab:
                raise ModelFormatError(
                    f"{path}: rule condition on {name!r} does not fit the feature's vocabulary"
                )
    return Model(features=features, rules=rules, hyper=hyper, label_name=label, metadata=meta)


def training_metadata(seed: int, n_iter: int, score: Score, n_rows: int) -> dict:
    return {
        "seed": seed,
        "iterations": n_iter,
        "log_posterior": score.log_posterior,
        "log_prior": score.log_prior,
        "log_likelihood": score.log_likelihood,
        "confusion": asdict(score.confusion),
        "n_rows": n_rows,
    }


def _merged_interval_text(spec: FeatureSpec, values: Sequence[int]) -> str:
    """Union of contiguous selected intervals, e.g. "[0, 30) ∪ [40, 50)"."""
    runs = []
    start = prev = values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append((start, prev))
        start = prev = v
    runs.append((start, prev))
    parts = [
        f"[{spec.intervals[a][0]:.6g}, {spec.intervals[b][1]:.6g})" for a, b in runs
    ]
    return " ∪ ".join(parts)


def condition_text(spec: FeatureSpec, cond: Condition) -> str:
    if spec.kind == "numeric":
        return f"[{spec.name} ∈ {_merged_interval_text(spec, cond.values)}]"
    body = " or ".join(spec.categories[v] for v in cond.values)
    return f"[{spec.name} = {body}]"


def rule_text(features: Sequence[FeatureSpec], rule: Rule) -> str:
    return " AND ".join(condition_text(features[c.feature_id], c) for c in rule.conditions)


def render_rules(model: Model) -> str:
    """Human-readable listing, one numbered rule per line."""
    if not model.rules.rules:
        return "(empty rule set: every observation is classified negative)\n"
    lines = [
        f"rule {k}: {rule_text(model.features, rule)}"
        for k, rule in enumerate(model.rules.rules, start=1)
    ]
    return "\n".join(lines) + "\n"
