"""Polynomial color-reduction machinery (Linial [41], Kuhn [38]).

One reduction step maps a proper ``m``-coloring of a graph with maximum
degree ``Δ`` to a proper ``q²``-coloring in a single communication round,
where ``q`` is a prime with ``q > Δ·d`` and ``q^(d+1) >= m``:

* a color ``c < q^(d+1)`` is interpreted as the coefficient vector (base
  ``q``) of a polynomial ``f_c`` of degree at most ``d`` over GF(q);
* distinct colors give distinct polynomials, and two distinct polynomials
  of degree ≤ d agree on at most ``d`` points;
* a node with color ``c`` therefore has at most ``Δ·d < q`` "blocked"
  evaluation points and can pick a point ``x`` where its value differs
  from all neighbors'; the new color is the pair ``(x, f_c(x))``.

Iterating the step O(log* m) times reaches O(Δ²) colors.  The same
machinery, with the *minimum-conflict* point choice instead of a
conflict-free one, yields the one-round defective color reduction used in
:mod:`repro.coloring.defective_vertex`.

This module owns both engines of the step, which vertex Linial, the
simulator's batched receive and the defective reduction run over CSR
rows, bit-identically (the line-graph schedule runs only the python
twin: its numpy engine, in :mod:`repro.coloring.greedy`, has no rows):

* the **python twin**: :func:`polynomial_step` or
  :func:`minimum_conflict_step` per row, and :func:`polynomial_steps`
  for a whole schedule;
* the **numpy sweep** :func:`agreement_sweep` over a :func:`sweep_rows`
  layout, and its two consumers,
  :func:`conflict_free_step_numpy` (which sweeps its last unresolved
  rows again as their own compacted sub-CSR) and
  :func:`min_conflict_step_numpy`; :func:`polynomial_steps_numpy` runs a
  whole schedule.  When the sweep does not apply (no int64 headroom) the
  callers run the python twin.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.engine import _np
from repro.distributed.rounds import RoundTracker


#: Unresolved rows from which :func:`conflict_free_step_numpy` sweeps
#: its residue as a compacted sub-CSR instead of calling
#: :func:`polynomial_step` per row.
RESIDUE_SWEEP_ROWS = 48

_NO_FREE_POINT = (
    "no conflict-free point found; the input coloring was not proper or q <= degree_bound * d"
)


def is_prime(value: int) -> bool:
    """Deterministic primality test for the small values used here."""
    if value < 2:
        return False
    if value < 4:
        return True
    if value % 2 == 0:
        return False
    divisor = 3
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 2
    return True


def next_prime(value: int) -> int:
    """The smallest prime ``>= value``."""
    candidate = max(2, value)
    while not is_prime(candidate):
        candidate += 1
    return candidate


#: Shared ``(q, d) -> {(color, x) -> value}`` evaluation caches.  A
#: polynomial value is a pure function of ``(color, x, q, d)`` and the
#: same small post-reduction color values recur across the many per-part
#: Linial runs of one pipeline, so the caches are kept across calls
#: (bounded: cleared wholesale once they grow past the cap).
_EVAL_CACHES: Dict[Tuple[int, int], Dict[Tuple[int, int], int]] = {}
_EVAL_CACHE_LIMIT = 1 << 20


def shared_eval_cache(q: int, degree: int) -> Dict[Tuple[int, int], int]:
    """The process-wide evaluation cache for one ``(q, d)`` step."""
    cache = _EVAL_CACHES.get((q, degree))
    if cache is None:
        if len(_EVAL_CACHES) > 256:
            _EVAL_CACHES.clear()
        cache = _EVAL_CACHES[(q, degree)] = {}
    elif len(cache) > _EVAL_CACHE_LIMIT:
        cache.clear()
    return cache


def polynomial_value(color: int, x: int, q: int, degree: int) -> int:
    """Evaluate the polynomial encoded by ``color`` (base-q digits) at ``x`` mod q."""
    value = 0
    power = 1
    remaining = color
    for _ in range(degree + 1):
        coefficient = remaining % q
        remaining //= q
        value = (value + coefficient * power) % q
        power = (power * x) % q
    return value


def step_parameters(num_colors: int, degree_bound: int) -> Tuple[int, int]:
    """The ``(q, d)`` pair minimizing the resulting color count ``q²``.

    Requires ``q > degree_bound * d`` (a free point exists) and
    ``q^(d+1) >= num_colors`` (distinct colors map to distinct
    polynomials).
    """
    if num_colors < 1:
        raise ValueError("num_colors must be positive")
    best: Tuple[int, int] | None = None
    max_degree_choice = max(1, math.ceil(math.log2(max(2, num_colors))))
    for d in range(1, max_degree_choice + 1):
        lower = max(degree_bound * d + 1, math.ceil(num_colors ** (1.0 / (d + 1))))
        q = next_prime(max(2, lower))
        while q ** (d + 1) < num_colors:
            q = next_prime(q + 1)
        if best is None or q * q < best[0] * best[0]:
            best = (q, d)
    assert best is not None
    return best


@lru_cache(maxsize=4096)
def reduction_schedule(initial_colors: int, degree_bound: int) -> Tuple[Tuple[int, int], ...]:
    """The deterministic sequence of ``(q, d)`` steps Linial's algorithm runs.

    Every node can compute the schedule locally from the identifier-space
    size and Δ, so all nodes agree on the number of rounds.  The schedule
    stops when one more step would not reduce the number of colors.
    (Memoized — the same (id-space, Δ̄) pairs recur across the many
    per-part Linial schedules of one pipeline run — and returned as a
    tuple so the shared cached value is immutable.)
    """
    schedule: List[Tuple[int, int]] = []
    current = initial_colors
    while True:
        q, d = step_parameters(current, degree_bound)
        new_colors = q * q
        if new_colors >= current:
            break
        schedule.append((q, d))
        current = new_colors
    return tuple(schedule)


def polynomial_step(
    color: int,
    neighbor_colors: Sequence[int],
    q: int,
    degree: int,
    cache: Optional[Dict[Tuple[int, int], int]] = None,
) -> int:
    """One conflict-free reduction step for a single node.

    Returns the new color in ``[0, q²)``.  Requires the current coloring
    to be proper (no neighbor shares ``color``) and ``q > len(neighbor_colors) * degree``.

    ``cache`` memoizes ``(color, x) -> f_color(x)`` evaluations.  One
    reduction step evaluates the same colors at the same points for every
    node of the graph, so sharing one cache across a step removes almost
    all repeated polynomial evaluations.
    """
    distinct_neighbors = [c for c in set(neighbor_colors) if c != color]
    if cache is None:
        cache = {}
    for x in range(q):
        key = (color, x)
        own = cache.get(key)
        if own is None:
            own = polynomial_value(color, x, q, degree)
            cache[key] = own
        for c in distinct_neighbors:
            key = (c, x)
            value = cache.get(key)
            if value is None:
                value = polynomial_value(c, x, q, degree)
                cache[key] = value
            if value == own:
                break
        else:
            return x * q + own
    raise ValueError(_NO_FREE_POINT)


def minimum_conflict_step(
    color: int,
    neighbor_colors: Sequence[int],
    q: int,
    degree: int,
    cache: Optional[Dict[Tuple[int, int], int]] = None,
) -> Tuple[int, int]:
    """One defective reduction step: pick the evaluation point with fewest conflicts.

    Returns ``(new_color, conflicts)`` where ``conflicts`` is the number of
    neighbors choosing a polynomial that agrees at the chosen point.  If the
    input coloring is proper, ``conflicts <= len(neighbor_colors) * degree / q``.
    ``cache`` memoizes evaluations exactly as in :func:`polynomial_step`.
    """
    best_x = 0
    best_conflicts = None
    if cache is None:
        cache = {}
    relevant = [c for c in neighbor_colors if c != color]
    for x in range(q):
        key = (color, x)
        own = cache.get(key)
        if own is None:
            own = polynomial_value(color, x, q, degree)
            cache[key] = own
        conflicts = 0
        for c in relevant:
            key = (c, x)
            value = cache.get(key)
            if value is None:
                value = polynomial_value(c, x, q, degree)
                cache[key] = value
            if value == own:
                conflicts += 1
        if best_conflicts is None or conflicts < best_conflicts:
            best_conflicts = conflicts
            best_x = x
            if conflicts == 0:
                # No later point can beat zero conflicts, and ties keep
                # the earlier point anyway.
                break
    assert best_conflicts is not None
    own = cache[(color, best_x)]
    return best_x * q + own, best_conflicts


def polynomial_steps(
    colors: List[int], offsets: Sequence[int], flat: Sequence[int],
    schedule: Sequence[Tuple[int, int]], tracker: Optional[RoundTracker] = None,
) -> List[int]:
    """Every ``(q, d)`` step of ``schedule`` over CSR rows (the python twin).

    Row ``r`` has color ``colors[r]`` and neighbors
    ``flat[offsets[r] : offsets[r + 1]]``.  Each step charges one
    ``linial`` round.
    """
    rows = [flat[offsets[r] : offsets[r + 1]] for r in range(len(colors))]
    for q, d in schedule:
        cache = shared_eval_cache(q, d)
        colors = [
            polynomial_step(color, [colors[j] for j in row], q, d, cache)
            for color, row in zip(colors, rows)
        ]
        if tracker is not None:
            tracker.charge(1, "linial")
    return colors


def sweep_rows(own: Any, flat: Any, offsets: Any) -> Tuple[Any, ...]:
    """The row layout an :func:`agreement_sweep` reads, built once per CSR.

    Row ``r`` has color ``values[own[r]]`` and neighbors ``values[j]`` for
    ``j`` in ``flat[offsets[r] : offsets[r + 1]]`` (int64 arrays).
    """
    counts = _np.diff(offsets)
    nonempty = counts > 0
    return own, flat, offsets, counts, nonempty, offsets[:-1][nonempty]


def _base_q_digits(table: Any, q: int, degree: int) -> List[Any]:
    """The ``degree + 1`` base-``q`` digits of an int64 color table, lowest first.

    Decomposed once per step; a value at ``x`` is then one multiply-add
    sweep (:func:`_values_at`).
    """
    digits = []
    for _ in range(degree + 1):
        digits.append(table % q)
        table = table // q
    return digits


def _values_at(digits: List[Any], x: int, q: int) -> Any:
    """``f_c(x) mod q`` for every color of a :func:`_base_q_digits` table.

    Digits and powers are < q, so the unreduced sum stays inside int64
    (the callers check ``(d + 1)·q²``) and one final ``% q`` matches the
    modular chain of :func:`polynomial_value`.
    """
    value = digits[0].copy()
    power = 1
    for digit in digits[1:]:
        power = (power * x) % q
        _np.add(value, digit * power, out=value)
    value %= q
    return value


def agreement_sweep(
    values: Any, rows: Tuple[Any, ...], q: int, degree: int
) -> Optional[Iterator[Tuple[Any, Any]]]:
    """The numpy sweep behind both vectorized steps.

    ``values`` is a table of colors and ``rows`` a :func:`sweep_rows`
    layout over it.  For ``x = 0, 1, ..., q - 1`` the iterator yields
    ``(own_value, agree)``: each row's ``f_c(x)`` and how many neighbors
    agree with it at ``x`` (a same-colored neighbor agrees at every
    ``x``).  Returns ``None`` when a color does not fit int64 or
    ``(d + 1)·q²`` leaves no int64 headroom.
    """
    np = _np
    if (degree + 1) * q * q >= 2**62:
        return None
    try:
        table = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return None
    own, flat, _offsets, counts, nonempty, starts = rows
    digits = _base_q_digits(table, q, degree)

    def points() -> Iterator[Tuple[Any, Any]]:
        for x in range(q):
            value = _values_at(digits, x, q)
            own_value = value[own]
            agree = np.zeros(own.shape[0], dtype=np.int64)
            agree[nonempty] = np.add.reduceat(
                value[flat] == np.repeat(own_value, counts), starts, dtype=np.int64
            )
            yield own_value, agree

    return points()


def conflict_free_step_numpy(values: Any, rows: Tuple[Any, ...], q: int, degree: int) -> Any:
    """:func:`polynomial_step` for every row of an :func:`agreement_sweep`.

    Each row takes the first ``x`` no neighbor agrees at.  Once fewer
    than 1/16 of the rows are unresolved, among them every row with a
    same-colored neighbor, the full-width sweep stops.  From
    :data:`RESIDUE_SWEEP_ROWS` unresolved rows on they are swept again as
    their own compacted sub-CSR (:func:`_residue_sweep`); fewer go to
    :func:`polynomial_step` one by one.  Both ignore same-colored
    neighbors.  Returns int64 colors, or ``None`` when the sweep does not
    apply.
    """
    np = _np
    sweep = agreement_sweep(values, rows, q, degree)
    if sweep is None:
        return None
    own, flat, offsets = rows[:3]
    num = own.shape[0]
    result = np.empty(num, dtype=np.int64)
    unresolved = np.arange(num, dtype=np.int64)
    for x, (own_value, agree) in enumerate(sweep):
        conflicted = agree[unresolved] > 0
        free = unresolved[~conflicted]
        result[free] = x * q + own_value[free]
        unresolved = unresolved[conflicted]
        # Per-row rescans beat full-width sweeps once few rows remain.
        if not unresolved.size or (unresolved.size * 16 < num and x >= 1):
            break
    if not unresolved.size:
        return result
    table = np.asarray(values, dtype=np.int64)
    if unresolved.size >= RESIDUE_SWEEP_ROWS:
        result[unresolved] = _residue_sweep(table, rows, unresolved, q, degree)
        return result
    cache = shared_eval_cache(q, degree)
    for r in unresolved.tolist():
        neighbors = table[flat[offsets[r] : offsets[r + 1]]].tolist()
        result[r] = polynomial_step(int(table[own[r]]), neighbors, q, degree, cache)
    return result


def _residue_sweep(table: Any, rows: Tuple[Any, ...], residue: Any, q: int, degree: int) -> Any:
    """:func:`polynomial_step` for the ``residue`` rows, as one compacted sweep.

    The residue rows and their neighbors form a sub-CSR without the
    same-colored neighbors, which the twin ignores.  From ``x = 0`` on,
    each row takes the first ``x`` no remaining neighbor agrees at, and
    resolved rows leave the sub-CSR.  A row that finds no such ``x``
    raises the twin's ``ValueError``.
    """
    np = _np
    own, flat, offsets, counts = rows[:4]
    live = residue.shape[0]
    sizes = counts[residue]
    ends = np.cumsum(sizes)
    ramp = np.arange(int(ends[-1]), dtype=np.int64)
    ramp += np.repeat(offsets[residue] - ends + sizes, sizes)
    seg = np.repeat(np.arange(live, dtype=np.int64), sizes)
    own_colors = table[own[residue]]
    neighbor_colors = table[flat[ramp]]
    differs = neighbor_colors != own_colors[seg]
    seg = seg[differs]
    # One digit table: the live rows' own colors, then their neighbors'.
    digits = _base_q_digits(np.concatenate((own_colors, neighbor_colors[differs])), q, degree)
    slots = np.arange(live, dtype=np.int64)
    result = np.empty(live, dtype=np.int64)
    for x in range(q):
        value = _values_at(digits, x, q)
        own_value = value[:live]
        conflicted = np.zeros(live, dtype=bool)
        conflicted[seg[value[live:] == own_value[seg]]] = True
        free = ~conflicted
        result[slots[free]] = x * q + own_value[free]
        if not conflicted.any():
            return result
        if free.any():
            keep = conflicted[seg]
            rank = np.cumsum(conflicted) - 1
            digits = [digit[np.concatenate((conflicted, keep))] for digit in digits]
            seg = rank[seg[keep]]
            slots = slots[conflicted]
            live = slots.shape[0]
    raise ValueError(_NO_FREE_POINT)


def min_conflict_step_numpy(values: Any, rows: Tuple[Any, ...], q: int, degree: int) -> Any:
    """The color :func:`minimum_conflict_step` picks, for every row at once.

    Each row takes the first ``x`` with the fewest agreeing neighbors.  A
    same-colored neighbor adds one at every ``x``, so the first argmin
    matches the twin, which ignores it.  Returns int64 colors, or
    ``None`` when the :func:`agreement_sweep` does not apply.
    """
    np = _np
    sweep = agreement_sweep(values, rows, q, degree)
    if sweep is None:
        return None
    num = rows[0].shape[0]
    best_conflicts = np.full(num, np.iinfo(np.int64).max, dtype=np.int64)
    best_x = np.zeros(num, dtype=np.int64)
    best_value = np.zeros(num, dtype=np.int64)
    for x, (own_value, agree) in enumerate(sweep):
        better = agree < best_conflicts
        best_x[better] = x
        best_value[better] = own_value[better]
        best_conflicts = np.where(better, agree, best_conflicts)
        if not best_conflicts.any():
            break  # zero conflicts everywhere; ties keep the earlier point
    return best_x * q + best_value


def polynomial_steps_numpy(
    colors: Any, offsets: Sequence[int], flat: Sequence[int],
    schedule: Sequence[Tuple[int, int]], tracker: Optional[RoundTracker] = None,
) -> List[int]:
    """The vectorized twin of :func:`polynomial_steps`.

    From the first step the sweep does not apply to, the rest of the
    schedule runs on :func:`polynomial_steps`.
    """
    np = _np
    offsets_np = np.asarray(offsets, dtype=np.int64)
    own = np.arange(offsets_np.shape[0] - 1, dtype=np.int64)
    rows = sweep_rows(own, np.asarray(flat, dtype=np.int64), offsets_np)
    for i, (q, d) in enumerate(schedule):
        reduced = conflict_free_step_numpy(colors, rows, q, d)
        if reduced is None:
            colors = np.asarray(colors).tolist()
            return polynomial_steps(colors, offsets, flat, schedule[i:], tracker)
        colors = reduced
        if tracker is not None:
            tracker.charge(1, "linial")
    return np.asarray(colors).tolist()
