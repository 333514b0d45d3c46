"""Declarative scenario model: specs, cells, seeds and cache keys.

A :class:`ScenarioSpec` describes one experiment workload as *data*: a
runner name (resolved against :data:`repro.runtime.workloads.RUNNERS` at
execution time, so specs stay picklable and JSON-serializable) plus a
list of :class:`Cell` parameter dicts.  The executor derives everything
else — per-cell seeds, cache keys, shard assignment — from this data
alone, which is what makes the runtime deterministic:

**Determinism guarantee.**  A cell's seed is a pure function of the spec
name, the spec version and the cell's canonical parameters
(:func:`cell_seed`); a cell's cache key additionally folds in the
resolved execution knobs (:func:`cache_key`).  Neither depends on worker
count, shard assignment, execution order, wall-clock time or process
identity, so running the same spec with ``workers=1``, ``workers=8`` or
a ``--resume`` continuation produces bit-identical result rows (the
``timing`` field of a row is the only execution-dependent part and is
excluded from all comparisons and cache keys).

The execution knobs a cache key folds in are declared once, in the
knob table :data:`repro.knobs.KNOBS`; :class:`Knobs` has one field per
row and no knob names of its own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, make_dataclass
from typing import Mapping, Optional, Tuple

from repro.knobs import KNOBS


def canonical_json(value: object) -> str:
    """Canonical JSON encoding (sorted keys, no whitespace) for hashing."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Cell:
    """One unit of work of a scenario: a parameter assignment.

    Attributes:
        params: the cell's parameters (JSON-serializable; identifies the
            cell within its spec and feeds the seed / cache key).
        quick: whether the cell belongs to the fast (``--quick``) subset.
        repeats: timed repetitions for perf cells (the runner reports the
            best); 1 for correctness-only cells.
    """

    params: Mapping[str, object]
    quick: bool = True
    repeats: int = 1

    def label(self) -> str:
        """A short human-readable label for progress output."""
        parts = [f"{k}={v}" for k, v in sorted(self.params.items())]
        return " ".join(parts) if parts else "(no params)"


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a cell that times out, raises or crashes.

    Purely an *execution* concern: the policy never enters
    :func:`cell_seed` or :func:`cache_key`, so changing timeouts or
    retry counts never invalidates cached rows.

    Attributes:
        timeout_seconds: per-attempt wall-clock limit; ``None`` means no
            limit.  Enforced only when the executor runs cells in worker
            processes (``workers > 1``) — the in-process serial path
            cannot kill a hung cell and documents it.
        max_retries: extra attempts after the first (so a cell is tried
            at most ``1 + max_retries`` times before quarantine).
        backoff_seconds: base sleep before retry attempt *k*:
            ``backoff_seconds * 2**(k-1)``, capped at ``max_backoff``.
        backoff_jitter: deterministic jitter fraction in ``[0, 1]``; the
            actual sleep is scaled by ``1 + jitter * u`` where ``u`` is
            a pure hash of (cell key, attempt) — no shared RNG, so
            retries stay reproducible.
        max_backoff: upper bound on any single backoff sleep.
    """

    timeout_seconds: Optional[float] = None
    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_jitter: float = 0.25
    max_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(f"timeout_seconds must be > 0, got {self.timeout_seconds!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_seconds < 0:
            raise ValueError(f"backoff_seconds must be >= 0, got {self.backoff_seconds!r}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(f"backoff_jitter must be in [0, 1], got {self.backoff_jitter!r}")

    def backoff_for(self, key: str, attempt: int) -> float:
        """Deterministic backoff sleep before retry ``attempt`` (1-based)."""
        if attempt < 1 or self.backoff_seconds == 0:
            return 0.0
        base = min(self.backoff_seconds * 2 ** (attempt - 1), self.max_backoff)
        if not self.backoff_jitter:
            return base
        material = f"{key}:{attempt}".encode("utf-8")
        unit = int.from_bytes(hashlib.sha256(material).digest()[:8], "big") / 2.0**64
        return min(base * (1.0 + self.backoff_jitter * unit), self.max_backoff)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative scenario: a named runner over a list of cells.

    Attributes:
        name: unique registry name (e.g. ``"e1_sweep"``).
        title: one-line human description shown by ``scenarios list``.
        runner: key into :data:`repro.runtime.workloads.RUNNERS`.
        cells: the parameter grid.
        version: bumped when the workload semantics change — it is part
            of every cell's seed and cache key, so a version bump
            invalidates cached rows.
        tags: free-form labels (``"perf"``, ``"bench"``, ...).
        retry: default :class:`RetryPolicy` for this scenario's cells;
            CLI ``--timeout`` / ``--retries`` flags override it.  Not
            part of any seed or cache key.
    """

    name: str
    title: str
    runner: str
    cells: Tuple[Cell, ...]
    version: str = "1"
    tags: Tuple[str, ...] = ()
    retry: RetryPolicy = RetryPolicy()

    def cell_count(self, quick: bool = False) -> int:
        """Number of cells (restricted to the quick subset if asked)."""
        if quick:
            return sum(1 for cell in self.cells if cell.quick)
        return len(self.cells)

    def iter_cells(self, quick: bool = False):
        """Yield ``(index, cell)`` pairs, optionally quick-only.

        The index is the cell's position in the *full* grid, so it stays
        stable whether or not the quick filter is applied.
        """
        for index, cell in enumerate(self.cells):
            if quick and not cell.quick:
                continue
            yield index, cell


def spec(name, title, runner, cells, version="1", tags=(), retry=None) -> ScenarioSpec:
    """Convenience constructor turning plain dicts into :class:`Cell`\\ s."""
    built = tuple(
        cell if isinstance(cell, Cell) else Cell(params=dict(cell)) for cell in cells
    )
    return ScenarioSpec(
        name=name,
        title=title,
        runner=runner,
        cells=built,
        version=version,
        tags=tuple(tags),
        retry=retry if retry is not None else RetryPolicy(),
    )


# ---------------------------------------------------------------------- knobs
def _resolve_fields(self) -> None:
    for knob in KNOBS.values():
        object.__setattr__(self, knob.name, knob.resolve(getattr(self, knob.name)))


Knobs = make_dataclass(
    "Knobs",
    [(knob.name, Optional[str], knob.default) for knob in KNOBS.values()],
    namespace={
        "__doc__": """Resolved execution knobs threaded into every runner and cache key.

        One field per row of :data:`repro.knobs.KNOBS`, resolved at
        construction.  The *resolved* values enter the cache key, so a
        row computed under a forced engine is never reused for another
        engine, even though the engines are bit-identical by contract —
        the cache key must not encode that proof obligation.
        """,
        "__post_init__": _resolve_fields,
        "as_dict": asdict,
    },
    frozen=True,
)
Knobs.__module__ = __name__


def resolve_knobs(**values: Optional[str]) -> Knobs:
    """Resolve knobs by name: explicit value > environment > ``auto``.

    ``None`` (an unset CLI flag) and ``"auto"`` both defer to the
    environment.
    """
    return Knobs(**values)


# ---------------------------------------------------------------------- keys
def cell_seed(spec: ScenarioSpec, cell: Cell) -> int:
    """Deterministic per-cell seed: a pure function of (name, version, params).

    Independent of worker count, shard assignment and execution order —
    the cornerstone of the runtime's bit-identical-results guarantee.
    """
    material = f"{spec.name}:{spec.version}:{canonical_json(dict(cell.params))}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def cache_key(spec: ScenarioSpec, cell: Cell, knobs: Knobs) -> str:
    """Content key identifying a cell's result row in the store.

    Covers everything that determines the result: spec identity and
    version, runner name, canonical cell params, the derived seed and
    the resolved execution knobs.  Timing is deliberately excluded.
    """
    material = canonical_json(
        {
            "spec": spec.name,
            "version": spec.version,
            "runner": spec.runner,
            "params": dict(cell.params),
            "seed": cell_seed(spec, cell),
            "knobs": knobs.as_dict(),
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]
