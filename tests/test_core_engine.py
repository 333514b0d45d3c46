"""The engine scope of :mod:`repro.core.engine`, and the guard that keeps it the only way in."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import threading

import pytest

import repro
from repro.core import engine
from repro.core.engine import NUMPY_SCAN_THRESHOLD, _np

requires_numpy = pytest.mark.skipif(_np is None, reason="numpy not installed")


@pytest.fixture
def unset_env(monkeypatch):
    """No environment override: the size rule decides outside a scope."""
    monkeypatch.setattr(engine, "_ENV_SCAN_PATH", None)


@requires_numpy
class TestEngineScope:
    def test_size_rule_outside_every_scope(self, unset_env):
        assert engine.use_numpy(NUMPY_SCAN_THRESHOLD) is True
        assert engine.use_numpy(NUMPY_SCAN_THRESHOLD - 1) is False
        with engine.scan_path("auto"):
            assert engine.use_numpy(NUMPY_SCAN_THRESHOLD) is True
            assert engine.use_numpy(NUMPY_SCAN_THRESHOLD - 1) is False

    def test_nested_scopes_restore_the_outer_value(self, unset_env):
        with engine.scan_path("numpy"):
            with engine.scan_path("python"):
                assert engine.use_numpy(10**6) is False
            assert engine.use_numpy(1) is True
            with pytest.raises(KeyError), engine.scan_path("python"):
                raise KeyError("inside")
            assert engine.use_numpy(1) is True
        assert engine.use_numpy(1) is False

    def test_unknown_value_is_rejected(self, unset_env):
        with pytest.raises(ValueError, match="REPRO_SCAN_PATH"):
            with engine.scan_path("fortran"):
                pass  # pragma: no cover - the scope never opens
        assert engine.use_numpy(1) is False

    def test_a_scope_does_not_leak_into_another_thread(self, unset_env):
        seen = []
        with engine.scan_path("python"):
            worker = threading.Thread(target=lambda: seen.append(engine.use_numpy(10**6)))
            worker.start()
            worker.join()
            assert engine.use_numpy(10**6) is False
        assert seen == [True]


def _functions(module):
    """Every function and method defined in ``module``, with its qualified name."""
    for name, member in vars(module).items():
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(member):
            yield f"{module.__name__}.{name}", member
        elif inspect.isclass(member):
            for attr, value in vars(member).items():
                value = getattr(value, "__func__", value)  # static and class methods
                value = getattr(value, "fget", value)  # properties
                if inspect.isfunction(value):
                    yield f"{module.__name__}.{name}.{attr}", value


#: The knob record itself carries the value; it hands it to the scope.
KNOB_RECORDS = {"repro.runtime.spec.Knobs.__init__"}


def test_no_function_takes_a_scan_path_parameter():
    # The engine choice is the scope of repro.core.engine, set per cell by
    # the runtime's executor; a parameter would be a second way in.
    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for qualname, function in _functions(module):
            if qualname in KNOB_RECORDS:
                continue
            if "scan_path" in inspect.signature(function).parameters:
                offenders.append(qualname)
    assert offenders == []
