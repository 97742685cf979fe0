"""Model JSON format: save/load round trip and version rejection."""

import json

import pytest

from mars import cli
from mars.data import RawTable, discretize
from mars.errors import ModelFormatError
from mars.model import Rule, RuleSet
from mars.model_io import FORMAT_VERSION, load_model, save_model
from mars.scoring import HYPER_KEYS, Hyperparams


@pytest.fixture
def saved(tmp_path):
    rows = [(0.1, "CA", 1), (0.9, "?", 0), (0.5, "TX", 1), (0.3, "TX", 0)]
    data = discretize(RawTable(names=("x", "state", "y"), rows=rows, label_column="y"), n_bins=3)
    rules = RuleSet((Rule.of({0: (0, 1), 1: (2,)}), Rule.of({1: (0,)})))
    hyper = Hyperparams.defaults(2, beta_m=7.5, theta=(0.5, 2.0))
    meta = {"seed": 3, "n_rows": 4}
    path = tmp_path / "model.json"
    save_model(path, data.features, rules, hyper, "y", meta)
    return path, data.features, rules, hyper, meta


def test_save_load_round_trip(saved):
    path, features, rules, hyper, meta = saved
    model = load_model(path)
    assert model.features == features
    assert model.rules == rules
    assert model.hyper == hyper
    assert model.label_name == "y"
    assert model.metadata == meta


@pytest.mark.parametrize("version", [FORMAT_VERSION + 1, 0, "1"])
def test_wrong_format_version_rejected(saved, version):
    path = saved[0]
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="format version") as info:
        load_model(path)
    assert info.value.exit_code == 5


@pytest.mark.parametrize("key", HYPER_KEYS)
def test_missing_hyperparameter_rejected(saved, key):
    path = saved[0]
    doc = json.loads(path.read_text())
    del doc["hyperparams"][key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=key) as info:
        load_model(path)
    assert info.value.exit_code == 5


def rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_theta_of_the_wrong_length_rejected(saved, capsys):
    path = saved[0]
    rewrite(path, lambda doc: doc["hyperparams"].update(theta=[1.0] * 7))
    with pytest.raises(ModelFormatError, match="theta has 7 entries for 2 features") as info:
        load_model(path)
    assert info.value.exit_code == 5
    assert cli.main(["show", str(path)]) == 5
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", [0.5, 1.0, True])
def test_non_integer_rule_value_rejected(saved, capsys, value):
    path = saved[0]
    rewrite(path, lambda doc: doc["rules"][1][0][1].__setitem__(0, value))
    with pytest.raises(ModelFormatError, match="non-integer value index") as info:
        load_model(path)
    assert info.value.exit_code == 5
    assert cli.main(["show", str(path)]) == 5
    assert capsys.readouterr().err.startswith("error: ")


def set_feature(k, **fields):
    return lambda doc: doc["features"][k].update(fields)


def share_a_name(doc):
    # the rules name only the shared name, so they alone would still load
    doc["features"][0]["name"] = "state"
    doc["rules"] = [[["state", [0]]]]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc.update(features="ab"), id="features-not-a-list"),
        pytest.param(set_feature(1, values=[1, 2, 3]), id="non-string-category"),
        pytest.param(set_feature(0, intervals=[["a", "b"], ["b", "c"], ["c", "d"]]),
                     id="string-interval-bounds"),
        pytest.param(set_feature(0, intervals=[[0, True], [True, 2], [2, 3]]),
                     id="bool-interval-bound"),
        pytest.param(share_a_name, id="duplicate-feature-name"),
    ],
)
def test_malformed_feature_list_rejected(saved, capsys, edit):
    path = saved[0]
    rewrite(path, edit)
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert info.value.exit_code == 5
    assert cli.main(["show", str(path)]) == 5
    assert capsys.readouterr().err.startswith("error: ")


def test_non_utf8_model_file_rejected(saved, capsys):
    path = saved[0]
    text = path.read_bytes()
    assert b'"label": "y"' in text
    path.write_bytes(text.replace(b'"label": "y"', b'"label": "\xff"'))
    with pytest.raises(ModelFormatError, match="cannot read model file") as info:
        load_model(path)
    assert info.value.exit_code == 5
    assert cli.main(["show", str(path)]) == 5
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_hyperparameter_rejected(saved, value):
    path = saved[0]
    rewrite(path, lambda doc: doc["hyperparams"].update(beta_l=value))
    with pytest.raises(ModelFormatError, match="beta_l") as info:
        load_model(path)
    assert info.value.exit_code == 5
