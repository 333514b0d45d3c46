"""Unit tests for the scenario model: seeds, cache keys, knob resolution."""

from __future__ import annotations

import pytest

from repro.runtime.spec import (
    Cell,
    Knobs,
    cache_key,
    canonical_json,
    cell_seed,
    resolve_knobs,
    spec,
)


def _spec(version="1"):
    return spec(
        "unit_demo",
        "unit test spec",
        "local_coloring",
        [
            Cell(params={"n": 8, "delta": 2, "graph_seed": 1}),
            Cell(params={"n": 16, "delta": 2, "graph_seed": 1}, quick=False, repeats=3),
        ],
        version=version,
    )


class TestCellSeed:
    def test_deterministic_across_calls(self):
        s = _spec()
        assert [cell_seed(s, c) for c in s.cells] == [cell_seed(s, c) for c in s.cells]

    def test_distinct_per_cell_and_version(self):
        s1, s2 = _spec(), _spec(version="2")
        seeds = {cell_seed(s1, c) for c in s1.cells}
        assert len(seeds) == 2
        assert cell_seed(s1, s1.cells[0]) != cell_seed(s2, s2.cells[0])

    def test_param_order_is_irrelevant(self):
        s = _spec()
        reordered = Cell(params={"graph_seed": 1, "delta": 2, "n": 8})
        assert cell_seed(s, reordered) == cell_seed(s, s.cells[0])

    def test_non_negative_63_bit(self):
        s = _spec()
        for c in s.cells:
            assert 0 <= cell_seed(s, c) < 2**63


class TestCacheKey:
    def test_sensitive_to_params_version_and_knobs(self):
        s1, s2 = _spec(), _spec(version="2")
        knobs = Knobs()
        keys = {
            cache_key(s1, s1.cells[0], knobs),
            cache_key(s1, s1.cells[1], knobs),
            cache_key(s2, s2.cells[0], knobs),
            cache_key(s1, s1.cells[0], Knobs(scan_path="numpy")),
            cache_key(s1, s1.cells[0], Knobs(send_plane="batched")),
            cache_key(s1, s1.cells[0], Knobs(receive_plane="batched")),
        }
        assert len(keys) == 6

    def test_stable(self):
        s = _spec()
        assert cache_key(s, s.cells[0], Knobs()) == cache_key(s, s.cells[0], Knobs())


#: (knob, env variable, allowed values): restated here so the table in
#: repro.knobs is checked against an independent copy.
KNOB_ROWS = [
    ("scan_path", "REPRO_SCAN_PATH", ("auto", "numpy", "python")),
    ("send_plane", "REPRO_SEND_PLANE", ("auto", "batched", "dict")),
    ("receive_plane", "REPRO_RECEIVE_PLANE", ("auto", "batched", "dict")),
    ("repair_path", "REPRO_REPAIR_PATH", ("auto", "incremental", "recompute")),
]


@pytest.fixture
def clean_env(monkeypatch):
    for _name, env, _values in KNOB_ROWS:
        monkeypatch.delenv(env, raising=False)
    return monkeypatch


class TestKnobs:
    def test_env_override(self, clean_env):
        clean_env.setenv("REPRO_SCAN_PATH", "NumPy")
        clean_env.setenv("REPRO_SEND_PLANE", "batched")
        clean_env.setenv("REPRO_RECEIVE_PLANE", "Dict")
        knobs = resolve_knobs()
        assert knobs.scan_path == "numpy"
        assert knobs.send_plane == "batched"
        assert knobs.receive_plane == "dict"

    def test_explicit_beats_env(self, clean_env):
        clean_env.setenv("REPRO_SCAN_PATH", "numpy")
        clean_env.setenv("REPRO_RECEIVE_PLANE", "dict")
        assert resolve_knobs(scan_path="python").scan_path == "python"
        assert resolve_knobs(receive_plane="batched").receive_plane == "batched"

    def test_default_auto(self, clean_env):
        assert resolve_knobs() == Knobs()
        assert Knobs().as_dict() == {name: "auto" for name, _env, _values in KNOB_ROWS}

    def test_table_declares_every_knob(self):
        from repro.knobs import KNOBS

        assert [(k.name, k.env, k.choices) for k in KNOBS.values()] == KNOB_ROWS

    @pytest.mark.parametrize("name,env,values", KNOB_ROWS)
    def test_explicit_auto_records_the_forced_engine(self, clean_env, name, env, values):
        # An explicit "auto" under a forced engine must record the engine
        # that ran, or its cache key collides with an unforced run.
        clean_env.setenv(env, values[-1])
        forced = resolve_knobs(**{name: "auto"})
        assert forced.as_dict()[name] == values[-1]
        clean_env.delenv(env)
        s = _spec()
        unforced = resolve_knobs(**{name: "auto"})
        assert cache_key(s, s.cells[0], forced) != cache_key(s, s.cells[0], unforced)

    @pytest.mark.parametrize("name,env,values", KNOB_ROWS)
    @pytest.mark.parametrize("source", ["argument", "env"])
    def test_unknown_value_is_rejected(self, clean_env, name, env, values, source):
        if source == "env":
            clean_env.setenv(env, "bogus")
            overrides = {}
        else:
            overrides = {name: "bogus"}
        with pytest.raises(ValueError) as info:
            resolve_knobs(**overrides)
        message = str(info.value)
        for part in (name, env, "'bogus'", *values):
            assert part in message


class TestSpecModel:
    def test_iter_cells_quick_keeps_full_grid_indices(self):
        s = _spec()
        assert [i for i, _ in s.iter_cells()] == [0, 1]
        assert [i for i, _ in s.iter_cells(quick=True)] == [0]
        assert s.cell_count() == 2
        assert s.cell_count(quick=True) == 1

    def test_canonical_json_is_order_free(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})

    def test_spec_constructor_accepts_plain_dicts(self):
        s = spec("d", "t", "r", [{"x": 1}])
        assert isinstance(s.cells[0], Cell)
        assert s.cells[0].params == {"x": 1}

    def test_cell_label(self):
        assert Cell(params={"n": 8, "delta": 2}).label() == "delta=2 n=8"
