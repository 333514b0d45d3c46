"""The execution-knob table: the one place the engine-twin knobs are declared.

Every fast path ships with a bit-identical reference twin, and a knob
picks which twin runs.  Each row of :data:`KNOBS` gives a knob's name,
environment variable, allowed values (a tuple kept next to the code it
selects) and default.  The runtime's :class:`~repro.runtime.spec.Knobs`
and cache keys, the CLI flags, the benchmark metadata and the
``scan_path`` engines' process-wide override all iterate this table.

Resolution is *explicit value > environment > default*, where an
explicit default (``"auto"``) counts as unset, so a row records the
engine that actually ran.  A value outside the table raises
``ValueError`` naming the knob, its variable and the allowed values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.engine import SCAN_PATHS
from repro.serving.repair import REPAIR_PATHS


@dataclass(frozen=True)
class Knob:
    """One row of the knob table."""

    name: str
    env: str
    choices: Tuple[str, ...]
    help: str
    default: str = "auto"

    def check(self, value: str) -> str:
        """``value`` if allowed, else a ``ValueError`` naming this row."""
        if value not in self.choices:
            raise ValueError(
                f"unknown {self.name} {value!r} (env {self.env}): "
                f"expected one of {self.choices}"
            )
        return value

    def from_env(self) -> Optional[str]:
        """The checked environment override, or ``None`` when unset."""
        value = os.environ.get(self.env, "").strip().lower()
        return self.check(value) if value else None

    def resolve(self, value: Optional[str]) -> str:
        """Explicit value > environment > default (the default counts as unset)."""
        if value is None or value == self.default:
            return self.from_env() or self.default
        return self.check(value)


KNOBS = {
    knob.name: knob
    for knob in (
        Knob("scan_path", "REPRO_SCAN_PATH", SCAN_PATHS, "numpy/python engine knob"),
        Knob("repair_path", "REPRO_REPAIR_PATH", REPAIR_PATHS, "serving delta-repair twin knob"),
    )
}


def add_flag(parser, name: str, **kwargs) -> None:
    """Add ``--<name>`` to an argparse parser, restricted to the knob's values."""
    knob = KNOBS[name]
    kwargs.setdefault("help", f"{knob.help} (env {knob.env})")
    parser.add_argument(
        "--" + name.replace("_", "-"), dest=name, choices=knob.choices, **kwargs
    )
