"""Model JSON format: save/load round trip and version rejection."""

import codecs
import json

import pytest

from mars import cli
from mars.data import FeatureSpec, RawTable, discretize
from mars.errors import ModelFormatError
from mars.model import Rule, RuleSet
from mars.model_io import FORMAT_VERSION, Model, load_model, save_model
from mars.scoring import HYPER_KEYS, Hyperparams


@pytest.fixture
def saved(tmp_path):
    rows = [("0.1", "CA", "1"), ("0.9", "?", "0"), ("0.5", "TX", "1"), ("0.3", "TX", "0")]
    data = discretize(RawTable(names=("x", "state", "y"), rows=rows, label_column="y"), n_bins=3)
    rules = RuleSet((Rule.of({0: (0, 1), 1: (2,)}), Rule.of({1: (0,)})))
    hyper = Hyperparams.defaults(2, beta_m=7.5, theta=(0.5, 2.0))
    meta = {"seed": 3, "n_rows": 4}
    path = tmp_path / "model.json"
    save_model(path, Model(data.features, rules, hyper, "y", meta))
    return path, data.features, rules, hyper, meta


def test_save_load_round_trip(saved):
    path, features, rules, hyper, meta = saved
    model = load_model(path)
    assert model.features == features
    assert model.rules == rules
    assert model.hyper == hyper
    assert model.label_name == "y"
    assert model.metadata == meta


def test_model_file_with_a_byte_order_mark_loads(saved):
    # as an editor may save the file: it once read as an unexpected BOM
    path, features, rules, hyper, _ = saved
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    model = load_model(path)
    assert (model.features, model.rules, model.hyper) == (features, rules, hyper)


def test_show_prints_each_rule(tmp_path, capsys):
    features = (
        FeatureSpec("x", intervals=((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0))),
        FeatureSpec("state", categories=("A", "B", "C")),
    )
    hyper = Hyperparams.defaults(2)
    path = tmp_path / "model.json"
    # x's bins 0, 2 and 3 merge into two intervals
    rules = RuleSet((Rule.of({0: (0, 2, 3)}), Rule.of({0: (1,), 1: (0, 1)})))
    save_model(path, Model(features, rules, hyper, "y", {}))
    assert cli.main(["show", str(path)]) == 0
    assert capsys.readouterr().out == (
        "rule 1: [x ∈ [0, 0.25) ∪ [0.5, 1)]\n"
        "rule 2: [x ∈ [0.25, 0.5)] AND [state = A or B]\n"
    )
    save_model(path, Model(features, RuleSet(()), hyper, "y", {}))
    assert cli.main(["show", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "(empty rule set: every observation is classified negative)\n"


@pytest.mark.parametrize("version", [FORMAT_VERSION + 1, 0, "1", True, 1.0])
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


def assert_corrupt(path, edit, capsys):
    """The edited model file is corrupt to ``load_model`` and ``mars show``."""
    rewrite(path, edit)
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: corrupt model file (")
    assert info.value.exit_code == 5
    assert cli.main(["show", str(path)]) == 5
    assert capsys.readouterr().err.startswith(f"error: {path}: corrupt model file (")


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


def set_unused_feature(k, **fields):
    # no rule names feature k: only the feature's own checks can reject it
    def edit(doc):
        doc["features"][k].update(fields)
        doc["rules"] = [[[doc["features"][1 - k]["name"], [0]]]]
    return edit


def rename_an_unused_feature(name):
    def edit(doc):
        # no rule names feature 0: its name reached no lookup before predict
        doc["features"][0]["name"] = name
        doc["rules"] = [[["state", [0]]]]
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc.update(features="ab"), id="features-not-a-list"),
        pytest.param(rename_an_unused_feature(5), id="int-feature-name"),
        pytest.param(rename_an_unused_feature(None), id="null-feature-name"),
        pytest.param(set_feature(1, values=[1, 2, 3]), id="non-string-category"),
        pytest.param(set_feature(0, intervals=[["a", "b"], ["b", "c"], ["c", "d"]]),
                     id="string-interval-bounds"),
        pytest.param(set_feature(0, intervals=[[0, True], [True, 2], [2, 3]]),
                     id="bool-interval-bound"),
        pytest.param(share_a_name, id="duplicate-feature-name"),
        pytest.param(set_feature(1, values="abc"), id="string-categories"),
        pytest.param(lambda doc: doc.update(features=[7]), id="feature-not-an-object"),
        pytest.param(set_feature(1, kind="weird"), id="unknown-kind"),
        pytest.param(set_unused_feature(1, values=[]), id="empty-categories"),
        pytest.param(set_feature(1, values=["CA", "TX", "CA"]), id="repeated-category"),
        pytest.param(set_unused_feature(0, intervals=[]), id="empty-intervals"),
        pytest.param(set_feature(0, intervals=[[0, 1], [1, 1], [1, 2]]), id="empty-interval"),
        pytest.param(set_feature(0, intervals=[[0, 1], [2, 3], [3, 4]]),
                     id="intervals-not-contiguous"),
    ],
)
def test_malformed_feature_list_rejected(saved, capsys, edit):
    assert_corrupt(saved[0], edit, capsys)


def set_rule_values(values):
    # rule 1 is [state = CA]; state's vocabulary is CA, TX and the missing entry
    return lambda doc: doc["rules"][1][0].__setitem__(1, values)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(set_rule_values([5]), id="value-past-the-vocabulary"),
        pytest.param(set_rule_values([0, 1, 2]), id="every-value"),
        pytest.param(set_rule_values([-1]), id="negative-value"),
        # true and 1.0 equal 1: the check reads the file's list, not its set
        pytest.param(set_rule_values([1, True]), id="bool-beside-its-int"),
        pytest.param(set_rule_values([1, 1.0]), id="float-beside-its-int"),
    ],
)
def test_malformed_rule_rejected(saved, capsys, edit):
    assert_corrupt(saved[0], edit, capsys)


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


@pytest.mark.parametrize("value", [float("inf"), float("nan"), True])
def test_non_finite_hyperparameter_rejected(saved, value):
    path = saved[0]
    rewrite(path, lambda doc: doc["hyperparams"].update(beta_l=value))
    with pytest.raises(ModelFormatError, match="beta_l") as info:
        load_model(path)
    assert info.value.exit_code == 5


@pytest.mark.parametrize(
    "value",
    [
        pytest.param("11", id="string"),
        pytest.param([True, 1.0], id="bool-entry"),
        pytest.param(["1", "2"], id="string-entry"),
    ],
)
def test_theta_not_an_array_of_numbers_rejected(saved, capsys, value):
    path = saved[0]
    rewrite(path, lambda doc: doc["hyperparams"].update(theta=value))
    with pytest.raises(ModelFormatError, match="theta") as info:
        load_model(path)
    assert info.value.exit_code == 5
    assert cli.main(["show", str(path)]) == 5
    assert capsys.readouterr().err.startswith("error: ")
