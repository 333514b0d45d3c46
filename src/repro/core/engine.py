"""The one owner of the numpy-or-python engine choice.

Several hot paths ship two bit-identical implementations — a vectorized
numpy engine and a pure-python reference twin:

* the orientation proposal/accept loop
  (:mod:`repro.core.balanced_orientation`, run per split level by
  :mod:`repro.core.defective_edge_coloring`);
* Linial's reduction steps (:func:`repro.coloring.linial.
  linial_vertex_coloring`) and the vectorized ``receive_batch`` sweep
  of ``LinialNodeAlgorithm`` on the simulator, both over the one engine
  pair of :mod:`repro.coloring.color_reduction`;
* the defective reduction, local search and monochromatic-degree count
  of :mod:`repro.coloring.defective_vertex`;
* the Definition 5.1 defect recount
  (:func:`repro.core.defective_edge_coloring.measure_defects`);
* the edge schedule (endpoint counts per evaluation point, against a
  twin over line-graph rows) and the greedy leaf of
  :mod:`repro.coloring.greedy`;
* the row filter of :meth:`repro.graphs.core.Graph.edge_subset_view`;
* the CSR build of :class:`repro.graphs.core.Graph`, sized by its edge
  count.

Every one of them asks :func:`use_numpy` with the size of its instance,
and nothing passes the choice around.  The answer comes from, in order:

1. the innermost :func:`scan_path` scope of the current context — the
   runtime's executor enters one per cell, from the cell's
   ``Knobs.scan_path``, and tests enter one to pin an engine;
2. the ``REPRO_SCAN_PATH`` environment value, read once per process
   (CI runs the whole suite on one forced engine that way);
3. the size rule: numpy when it is installed and the instance has at
   least :data:`NUMPY_SCAN_THRESHOLD` elements.

``"auto"`` at either of the first two levels counts as unset;
``"numpy"`` forces the vectorized engine (``RuntimeError`` when numpy is
unavailable) and ``"python"`` the reference twin.  The knob and its
environment variable are declared once, in the knob table
:data:`repro.knobs.KNOBS`; this module owns its values
(:data:`SCAN_PATHS`) and checks every value through that table.

The differential matrix (``tests/test_differential_paths.py``) pins
every pair of twins bit-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

try:  # numpy accelerates the vectorized engines when present.
    import numpy as _np
except ImportError:  # pragma: no cover - the pure-python twins are equivalent
    _np = None

#: Recognized values of the ``scan_path`` knob.
SCAN_PATHS = ("auto", "numpy", "python")

#: Instance size (elements scanned per phase/step) from which the
#: vectorized engines engage when nothing forces an engine.  Below it,
#: per-op numpy dispatch overhead makes the pure-python twins faster.
NUMPY_SCAN_THRESHOLD = 128

#: The current scope's choice (``None`` outside every scope).  A context
#: variable, so a scope never leaks into another thread.
_SCOPE: ContextVar[Optional[str]] = ContextVar("repro_scan_path", default=None)

#: The knob table's environment value, read once on first use (``None``
#: when unset).
_ENV_SCAN_PATH = _UNREAD = object()


def _knob():
    # Imported here: the knob table imports SCAN_PATHS from this module.
    from repro.knobs import KNOBS

    return KNOBS["scan_path"]


@contextmanager
def scan_path(value: str) -> Iterator[None]:
    """Run the body with every engine choice resolved from ``value``.

    ``value`` is one of :data:`SCAN_PATHS` (else ``ValueError``).  On
    exit, by return or exception, the enclosing scope's value is back.
    """
    token = _SCOPE.set(_knob().check(value))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def use_numpy(size: int) -> bool:
    """Whether an instance of ``size`` elements runs the vectorized engine."""
    global _ENV_SCAN_PATH
    path = _SCOPE.get()
    if path is None or path == "auto":
        if _ENV_SCAN_PATH is _UNREAD:
            _ENV_SCAN_PATH = _knob().from_env()
        path = _ENV_SCAN_PATH or "auto"
    if path == "auto":
        return _np is not None and size >= NUMPY_SCAN_THRESHOLD
    if path == "numpy":
        if _np is None:
            raise RuntimeError("scan_path='numpy' requested but numpy is unavailable")
        return True
    return False  # "python": both sources are checked against SCAN_PATHS
