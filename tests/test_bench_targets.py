"""The benchmark's tracer interposes on program names: they must exist."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from mars.data import RawTable

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attr, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    assert isinstance(RawTable.__dict__["from_csv"], classmethod)


def test_search_calls_the_traced_bitset_and_mask_names(monkeypatch):
    """The tracer times these layers by rebinding ``mars.search``'s globals,
    so the search must call them through those names: a call inlined or
    bound to a local would leave its per-layer metric reading 0."""
    import mars.search as search
    from mars.data import discretize
    from mars.scoring import Hyperparams
    from mars.synth import SynthSpec, generate

    calls = dict.fromkeys(("rule_mask", "indices"), 0)
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(search, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(search, name, counted)
    table, _ = generate(SynthSpec(n_rows=300, n_features=6, seed=1))
    data = discretize(table)
    search.run(data, Hyperparams.defaults(data.n_features), search.SearchConfig(n_iter=300))
    assert all(calls.values()), calls


def test_search_scores_candidates_through_the_traced_likelihood_name(monkeypatch):
    """The tracer times ``scoring.log_likelihood`` by rebinding
    ``mars.search.log_likelihood``.  A pick ranks its candidates by their
    posteriors, so the run must call that name at least once per pick: a
    likelihood scored under another name would leave the metric blind to
    the candidates, which are most of the search's likelihood calls."""
    import mars.search as search
    from mars.data import discretize
    from mars.scoring import Hyperparams
    from mars.synth import SynthSpec, generate

    calls = picks = 0

    def counted(*args, _orig=search.log_likelihood):
        nonlocal calls
        calls += 1
        return _orig(*args)

    def proposing(*args, _orig=search.propose):
        nonlocal picks
        pick = _orig(*args)
        picks += pick is not None
        return pick

    monkeypatch.setattr(search, "log_likelihood", counted)
    monkeypatch.setattr(search, "propose", proposing)
    table, _ = generate(SynthSpec(n_rows=300, n_features=6, seed=1))
    data = discretize(table)
    search.run(data, Hyperparams.defaults(data.n_features), search.SearchConfig(n_iter=300))
    assert picks
    assert calls >= picks, (calls, picks)


def test_add_rule_seeds_get_their_masks_through_the_traced_name(monkeypatch):
    """Every admitted add-rule seed needs its mask from ``mars.search.rule_mask``,
    the one rule-mask builder: a seed masked another way would leave the
    traced ``data.rule_mask_*`` metrics blind to the add-rule action."""
    import mars.search as search
    from mars.data import discretize
    from mars.scoring import Hyperparams
    from mars.synth import SynthSpec, generate

    calls = 0
    seeded = []

    def counted(*args, _orig=search.rule_mask):
        nonlocal calls
        calls += 1
        return _orig(*args)

    def recording(*args, _orig=search._seed_moves):
        nonlocal calls
        calls = 0
        seeds = _orig(*args)
        seeded.append((calls, len(seeds)))
        return seeds

    monkeypatch.setattr(search, "rule_mask", counted)
    monkeypatch.setattr(search, "_seed_moves", recording)
    table, _ = generate(SynthSpec(n_rows=300, n_features=6, seed=1))
    data = discretize(table)
    search.run(data, Hyperparams.defaults(data.n_features), search.SearchConfig(n_iter=300))
    assert sum(n for _, n in seeded), "no add-rule step admitted a seed"
    assert all(masks >= n for masks, n in seeded), seeded


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_predict_and_evaluate_call_the_traced_encode_name_once(monkeypatch, tmp_path, command):
    """The tracer times ``data.encode`` by rebinding ``mars.cli.encode_with_specs``:
    a command that bound it locally would leave ``data.encode_s`` reading 0."""
    from mars import cli
    from mars.data import FeatureSpec
    from mars.model import Rule, RuleSet
    from mars.model_io import Model, save_model
    from mars.scoring import Hyperparams

    model = tmp_path / "model.json"
    features = [FeatureSpec("c", categories=("a", "b")),
                FeatureSpec("x", intervals=((0.0, 1.0), (1.0, 2.0)))]
    save_model(model, Model(features, RuleSet((Rule.of({0: [0]}),)), Hyperparams.defaults(2),
                            "y", {}))
    holdout = tmp_path / "holdout.csv"
    holdout.write_text("c,x,y\na,0.5,1\nb,1.5,0\n")

    calls = []

    def counted(*args, _orig=cli.encode_with_specs):
        calls.append(args)
        return _orig(*args)

    monkeypatch.setattr(cli, "encode_with_specs", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, str(model), str(holdout)]) == 0
    assert len(calls) == 1
    assert calls[0][2] == {0}  # the one feature the rule reads
