"""Standing input fuzzer: whatever a user feeds ``mars train``,
``mars predict`` and ``mars evaluate``, the command returns 0 or the exit
code of an ``errors.py`` class, and raises nothing.

One hypothesis property per input kind: the holdout CSV and the model
file, and the training CSV and the ``--hyper-config`` file.  The models'
rules read a subset of the columns, so the fuzzer also reaches the columns
that prediction checks but does not encode.  Training runs a few search
steps only: the inputs are checked before the search starts."""

import codecs
import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mars import cli, errors
from mars.data import MISSING, FeatureSpec
from mars.model import Rule, RuleSet
from mars.model_io import Model, save_model
from mars.scoring import Hyperparams

EXIT_CODES = {0} | {
    cls.exit_code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.MarsError)
}

FEATURES = (
    FeatureSpec("x", intervals=((0.0, 0.5), (0.5, 1.0))),
    FeatureSpec("c", categories=("a", "b", "c", MISSING)),
    FeatureSpec("k", categories=("p", "q")),
    FeatureSpec("noise", intervals=((0.0, 0.25), (0.25, 0.5), (0.5, 1.0))),
)
RULE_SETS = {
    "none": RuleSet(),
    "c": RuleSet((Rule.of({1: [0, 1]}),)),
    "x-k": RuleSet((Rule.of({0: [0], 2: [1]}),)),
    "c|noise": RuleSet((Rule.of({1: [0]}), Rule.of({3: [1, 2]}))),
}
HEADER = ("x", "c", "k", "noise", "y")
ROWS = (("0.1", "a", "p", "0.3", "1"), ("0.7", "b", "q", "0.9", "0"), ("", "", "p", "?", "0"),
        ("-2", "zz", "q", "5", "1"), ("nan", MISSING, "p", "0.4", "0"))
# a training table that trains as it stands: finite numbers, both labels
TRAIN_ROWS = tuple(
    (f"{i / 10:.1f}", "abc"[i % 3], "pq"[i % 2], f"{i * 7 % 10 / 10:.1f}", str(int(i < 4)))
    for i in range(10)
)
TRAIN_FLAGS = ("--label", "y", "--iters", "5", "--restarts", "0")

# cells that once broke, or might break, a parser
ODD_CELLS = ["", " ", "?", "nan", "-inf", "1e400", "abc", MISSING, "True", "1_0", "٣", "\x00",
             ",", '"', "\n", "y", "a" * 300]
cell_text = st.one_of(st.sampled_from(ODD_CELLS), st.text(max_size=6))


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, rules in RULE_SETS.items():
        paths[name] = tmp / f"{name}.json"
        save_model(paths[name],
                   Model(FEATURES, rules, Hyperparams.defaults(len(FEATURES)), "y", {}))
    return tmp, paths


def exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


@st.composite
def mutated_csvs(draw, base=ROWS):
    """A CSV of the ``base`` rows as bytes after a few edits: odd cells,
    ragged, dropped or duplicated rows, header columns dropped, duplicated
    or renamed, a BOM, CRLF line ends, a byte that is not UTF-8."""
    header = list(HEADER)
    rows = [list(r) for r in base]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["cell", "ragged", "drop row", "duplicate row", "header"]))
        if kind == "header":
            if not header:
                continue
            j = draw(st.integers(0, len(header) - 1))
            op = draw(st.sampled_from(["drop", "duplicate", "rename"]))
            if op == "drop":
                del header[j]
            elif op == "duplicate":
                header.insert(j, header[j])
            else:
                header[j] = draw(cell_text)
            continue
        if not rows:
            continue
        r = draw(st.integers(0, len(rows) - 1))
        if kind == "cell" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(cell_text)
        elif kind == "ragged":
            if draw(st.booleans()) or not rows[r]:
                rows[r].append(draw(cell_text))
            else:
                rows[r].pop()
        elif kind == "drop row":
            del rows[r]
        elif kind == "duplicate row":
            rows.insert(r, list(rows[r]))
    text = io.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [header, *rows])
    data = text.getvalue().encode()
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if draw(st.integers(0, 9)) == 7:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@given(mutated_csvs(), st.sampled_from(sorted(RULE_SETS)), st.sampled_from(["predict", "evaluate"]))
def test_mutated_holdout_csv_exits_cleanly(models, data, model, command):
    tmp, paths = models
    holdout = tmp / "holdout.csv"
    holdout.write_bytes(data)
    assert exit_code([command, paths[model], holdout]) in EXIT_CODES


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-1, 4), max_size=3), st.just({}),
)


@st.composite
def mutated_models(draw, doc):
    """The model document after a few edits, each replacing or deleting one
    entry of an object or array anywhere in it."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.integers(0, 4)) == 0:
                del node[key]
            else:
                node[key] = draw(json_leaves)
            break
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(RULE_SETS)), st.sampled_from(["predict", "evaluate"]))
def test_mutated_model_file_exits_cleanly(models, data, model, command):
    tmp, paths = models
    holdout = tmp / "holdout-for-models.csv"
    with open(holdout, "w", newline="") as fh:
        csv.writer(fh).writerows([HEADER, *ROWS])
    mutated = tmp / "mutated.json"
    mutated.write_text(data.draw(mutated_models(json.loads(paths[model].read_text()))))
    assert exit_code([command, mutated, holdout]) in EXIT_CODES


@settings(max_examples=100, deadline=None)
@given(mutated_csvs(TRAIN_ROWS), st.sampled_from(["width", "frequency"]),
       st.sampled_from(["2", "3", "10"]))
def test_mutated_training_csv_exits_cleanly(models, data, scheme, bins):
    tmp, _ = models
    train = tmp / "train.csv"
    train.write_bytes(data)
    argv = ["train", train, "--out", tmp / "trained.json", *TRAIN_FLAGS,
            "--scheme", scheme, "--bins", bins]
    assert exit_code(argv) in EXIT_CODES


CONFIG_LINES = ("alpha_m = 1", "beta_m=100", "alpha_l = 2  # a comment", "beta_l = 50",
                "theta = 1, 2, 1, 1", "alpha_pos = 100", "beta_pos = 1", "alpha_neg = 100",
                "beta_neg = 1", "# a comment line", "")
ODD_VALUES = ["0", "-1", "1e-320", "1e308", "inf", "nan", "abc", "", "1,2", "1,,2", "1, 2, 3",
              "1,2,3,4,5", "True", "0x10", "1_0", "٣", "1e400", "=", "#"]


@st.composite
def mutated_configs(draw):
    """A ``--hyper-config`` file as bytes after a few edits: odd values,
    unknown, misspelt or upper-case keys, lines without ``=``, dropped or
    duplicated lines, a BOM, a byte that is not UTF-8."""
    lines = list(CONFIG_LINES)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["value", "key", "drop", "duplicate", "no equals"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else None
        if i is None:
            continue
        key, equals, value = lines[i].partition("=")
        if kind == "value":
            lines[i] = f"{key}={draw(st.one_of(st.sampled_from(ODD_VALUES), cell_text))}"
        elif kind == "key":
            new = draw(st.one_of(st.sampled_from(["THETA", "alpha", "gamma", " "]), cell_text))
            lines[i] = f"{new}{equals}{value}"
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = key + value
    data = "\n".join(lines).encode()
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if draw(st.integers(0, 9)) == 7:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=100, deadline=None)
@given(mutated_configs())
def test_mutated_hyper_config_exits_cleanly(models, data):
    tmp, _ = models
    train = tmp / "train-for-configs.csv"
    with open(train, "w", newline="") as fh:
        csv.writer(fh).writerows([HEADER, *TRAIN_ROWS])
    config = tmp / "hyper.cfg"
    config.write_bytes(data)
    argv = ["train", train, "--out", tmp / "configured.json", *TRAIN_FLAGS,
            "--hyper-config", config]
    assert exit_code(argv) in EXIT_CODES
