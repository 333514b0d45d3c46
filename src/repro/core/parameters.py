"""Parameter formulas of the paper (Equations (3)–(6), Theorem 5.6, Lemma 6.1).

Two kinds of values live here:

* **analytic formulas** — verbatim transcriptions of the paper's
  expressions, used by the property tests (which check monotonicity and
  the inequalities the proofs rely on) and reported next to the measured
  quantities in the benchmarks; and
* **practical defaults** — the values the implementation actually runs
  with.  The analytic constants (e.g. β = C·ln³Δ̄/ε⁵) are astronomically
  larger than any simulatable graph, so running with them would make
  every phase degenerate; the practical defaults keep the algorithms'
  structure identical while producing meaningful measurements.  Every
  benchmark reports both numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


#: Upper bound on the orientation-phase parameter ν (Equation (4)).
NU_UPPER_BOUND = 1.0 / 8.0

#: Constant C of Theorem 5.6 / Corollary 5.7 (β = C·ln³Δ̄/ε⁵).  The proof
#: of Theorem 5.6 derives the explicit constant 28; we keep it.
BETA_CONSTANT = 28.0


def _safe_log(value: float) -> float:
    """Natural log clamped away from zero (the paper always has Δ̄ ≥ 2)."""
    return math.log(max(2.0, value))


# --------------------------------------------------------------------------- Section 4 / 5
def nu_from_epsilon(epsilon: float) -> float:
    """The phase parameter ν for a target orientation slack ε (proof of Theorem 5.6 sets ε = 8ν)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return min(NU_UPPER_BOUND, epsilon / 8.0)


@lru_cache(maxsize=65536)
def k_phase(nu: float, bar_delta: int, phase: int) -> int:
    """k_φ = ⌈ν(1−ν)^{φ−1}·Δ̄⌉ — the token budget of phase φ (step 3 of the Section 5 algorithm)."""
    if phase < 1:
        raise ValueError("phases are numbered from 1")
    return max(1, math.ceil(nu * (1.0 - nu) ** (phase - 1) * bar_delta))


@lru_cache(maxsize=65536)
def delta_phase(nu: float, bar_delta: int, phase: int) -> int:
    """δ_φ of Equation (6): max(1, ⌊(1/16)·ν⁶/ln³Δ̄·(1−ν)^{φ−1}·Δ̄⌋)."""
    if phase < 1:
        raise ValueError("phases are numbered from 1")
    value = (nu ** 6) / (16.0 * _safe_log(bar_delta) ** 3) * (1.0 - nu) ** (phase - 1) * bar_delta
    return max(1, math.floor(value))


@lru_cache(maxsize=65536)
def alpha_node(nu: float, bar_delta: int, d_minus: int) -> int:
    """α_v(φ) of Equation (5): max(1, (1/4)·ν²/lnΔ̄·(d⁻_φ(v) + 1)).

    ``d_minus`` is the minimum static edge degree among the node's already
    oriented edges (Δ̄ when the node has none).  The value is rounded down
    to an integer ≥ 1; the paper treats α as a real parameter but only
    its order matters.
    """
    value = 0.25 * (nu ** 2) / _safe_log(bar_delta) * (d_minus + 1)
    return max(1, math.floor(value))


def beta_theoretical(epsilon: float, bar_delta: int, constant: float = BETA_CONSTANT) -> float:
    """β = C·ln³Δ̄/ε⁵ of Theorem 5.6 / Corollary 5.7."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return constant * _safe_log(bar_delta) ** 3 / (epsilon ** 5)


@lru_cache(maxsize=65536)
def orientation_phase_count(nu: float, bar_delta: int) -> int:
    """φ̂ = O(log Δ̄ / ν): the number of orientation phases after which every node
    has O(1) unoriented incident edges (proof of Theorem 5.6)."""
    if bar_delta <= 1:
        return 1
    return max(1, math.ceil(_safe_log(bar_delta) / -math.log(1.0 - nu)))


def token_dropping_slack_bound(
    alpha_u: int,
    alpha_v: int,
    deg_u: int,
    deg_v: int,
    delta: int,
) -> float:
    """The Theorem 4.3 bound on τ(u) − τ(v) for an active edge (u, v)."""
    return 2.0 * (alpha_u + alpha_v) + (
        deg_u * deg_v / (alpha_u * alpha_v) + deg_u / alpha_u + deg_v / alpha_v
    ) * delta


# --------------------------------------------------------------------------- Section 6
def lemma61_round_bound(epsilon: float, max_degree: int) -> float:
    """The O(log¹¹Δ/ε⁶) round bound of Lemma 6.1 (unit constant)."""
    return math.log2(max(2, max_degree)) ** 11 / (epsilon ** 6)


def theorem63_round_bound(epsilon: float, max_degree: int, num_nodes: int) -> float:
    """The O(log¹²Δ/ε⁶ + log* n) round bound of Theorem 6.3 (unit constants)."""
    from repro.graphs.identifiers import log_star

    return math.log2(max(2, max_degree)) ** 12 / (epsilon ** 6) + log_star(max(2, num_nodes))


def theorem_d4_round_bound(color_space: int, max_degree: int, num_nodes: int) -> float:
    """The O(log⁷C·log⁵Δ + log* n) round bound of Theorem D.4 (unit constants)."""
    from repro.graphs.identifiers import log_star

    return (
        math.log2(max(2, color_space)) ** 7 * math.log2(max(2, max_degree)) ** 5
        + log_star(max(2, num_nodes))
    )


# --------------------------------------------------------------------------- practical defaults
@dataclass(frozen=True)
class PracticalParameters:
    """Practical overrides used by the implementation (see module docstring).

    Attributes:
        epsilon: target relative slack of orientations / defective colorings.
        nu: orientation phase parameter.  The practical default is 1/8 — the
            largest value Equation (4) allows — which keeps the number of
            orientation phases at 8·ln Δ̄; set to ``None`` to derive ε/8 as in
            the proof of Theorem 5.6.
        beta_override: additive slack used when turning λ into η (Equation
            (3)); ``None`` means "use the analytic β", a finite value keeps
            the additive term commensurate with simulatable degrees.
        leaf_degree: edge-degree threshold below which recursions stop and
            the leftover graph is colored greedily.
        passive_slack_threshold: the list-coloring solver sends an edge to
            the passive set when its slack falls below this value.
        list_slack: the slack S the Lemma D.3 substitute demands before it
            hands an edge to the slack solver (the paper uses S ≥ e²; any
            S ≥ 1 is correct here, larger values only change round counts).
        list_reduction_parts: number of sequential parts the Lemma D.3
            substitute splits the uncolored graph into.
        final_degree: the outer recursion of Theorem D.4 / Theorem 6.3
            stops and finishes greedily once the uncolored degree is below
            this threshold.
    """

    epsilon: float = 0.25
    nu: float | None = NU_UPPER_BOUND
    beta_override: float | None = 0.0
    leaf_degree: int = 8
    passive_slack_threshold: float = 2.0
    list_slack: float = 1.5
    list_reduction_parts: int = 16
    final_degree: int = 12

    def resolved_nu(self) -> float:
        """ν to run the orientation with."""
        return self.nu if self.nu is not None else nu_from_epsilon(self.epsilon)

    def beta(self, bar_delta: int) -> float:
        """The β used when computing η_e from λ_e."""
        if self.beta_override is None:
            return beta_theoretical(self.epsilon, bar_delta)
        return self.beta_override


DEFAULT_PARAMETERS = PracticalParameters()
