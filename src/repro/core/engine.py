"""Shared numpy-engine selection for the vectorized/reference twins.

Several hot paths ship two bit-identical implementations — a vectorized
numpy engine and a pure-python reference twin: the orientation
proposal/accept loop (:mod:`repro.core.balanced_orientation`), the
line-graph Linial schedule and greedy machinery
(:mod:`repro.coloring.greedy`), the defective min-conflict reduction
(:mod:`repro.coloring.defective_vertex`) and the defect measurement
(:mod:`repro.core.defective_edge_coloring`).  They all select their
engine through :func:`resolve_use_numpy`, driven by one ``scan_path``
knob with identical semantics everywhere:

* ``"auto"`` — numpy when available and the instance has at least
  :data:`NUMPY_SCAN_THRESHOLD` elements, unless the environment forces
  an engine process-wide (CI runs the whole suite on one forced engine
  that way);
* ``"numpy"`` — force the vectorized engine (``RuntimeError`` when
  numpy is unavailable);
* ``"python"`` — force the reference twin.

The knob and its environment variable are declared once, in the knob
table :data:`repro.knobs.KNOBS`; this module owns only its values
(:data:`SCAN_PATHS`) and reads the override through the table.

The differential matrix (``tests/test_differential_paths.py``) pins
every pair of twins bit-identical.
"""

from __future__ import annotations

try:  # numpy accelerates the vectorized engines when present.
    import numpy as _np
except ImportError:  # pragma: no cover - the pure-python twins are equivalent
    _np = None

#: Recognized values of the ``scan_path`` knob.
SCAN_PATHS = ("auto", "numpy", "python")

#: Instance size (elements scanned per phase/step) above which the
#: vectorized engines engage in ``scan_path="auto"`` mode.  Below it,
#: per-op numpy dispatch overhead makes the pure-python twins faster.
NUMPY_SCAN_THRESHOLD = 128

#: The process-wide override of ``scan_path="auto"``: the knob table's
#: environment value, read once on first use (``None`` when unset).
_ENV_SCAN_PATH = _UNREAD = object()


def resolve_use_numpy(scan_path: str, size: int) -> bool:
    """Whether to run the vectorized engine (see the module docstring)."""
    global _ENV_SCAN_PATH
    if scan_path == "auto":
        if _ENV_SCAN_PATH is _UNREAD:
            from repro.knobs import KNOBS

            _ENV_SCAN_PATH = KNOBS["scan_path"].from_env()
        scan_path = _ENV_SCAN_PATH or "auto"
    if scan_path == "auto":
        return _np is not None and size >= NUMPY_SCAN_THRESHOLD
    if scan_path == "numpy":
        if _np is None:
            raise RuntimeError("scan_path='numpy' requested but numpy is unavailable")
        return True
    if scan_path == "python":
        return False
    raise ValueError(f"unknown scan_path {scan_path!r}: expected one of {SCAN_PATHS}")
