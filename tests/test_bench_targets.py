"""The benchmark's tracer interposes on program names: they must exist."""

import importlib
import importlib.util
from pathlib import Path

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
