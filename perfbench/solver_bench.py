"""Solver workloads: LOCAL (2Δ−1)-edge coloring of a random Δ-regular graph.

One thread, closed loop: ``api.color_edges_local`` on a prebuilt graph and
instance, again and again.  Every solve is checked: proper, at most
2Δ−1 colors, no list violation, every edge colored, and the same coloring,
round count and round breakdown as the first solve of the graph.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Tuple

from common import ROUND_LABELS, Calibrator, Report, digest, setup_seeds, time_setups

SETUP_REPEATS = 9


def _solve_pass(api, graph, instance, reference, solves: int, report: Report,
                calibrator: Calibrator, recorder=None) -> List[float]:
    walls = []
    for i in range(solves):
        if recorder is not None:
            recorder.set_request_id(str(i))
        gc.collect()
        start = time.perf_counter()
        out = api.color_edges_local(graph, instance=instance)
        walls.append(time.perf_counter() - start)
        calibrator.after(walls[-1])
        report.attempted += 1
        same = (
            out.is_proper
            and out.colors == reference.colors
            and out.rounds == reference.rounds
            and out.details["round_breakdown"] == reference.details["round_breakdown"]
        )
        if not same:
            report.failed += 1
            report.check(False, f"solve {i} differs from the first solve or is improper")
    return walls


def _pass(api, graph, instance, reference, solves: int, report: Report, label: str,
          recorder=None) -> Tuple[Dict[str, float], List[float]]:
    """One pass of ``solves`` timed solves.  Prints ``solve_ms`` (median)
    and ``edges_per_s`` (whole pass) as measured, with their sample counts;
    returns ``op_ms`` (mean solve) and ``work_per_s`` at reference speed,
    and the solve walls."""
    calibrator = Calibrator()
    walls = _solve_pass(api, graph, instance, reference, solves, report, calibrator, recorder)
    report.note(f"{label}:")
    report.timing("solve_ms", walls, tail=False)
    edges_per_s = graph.num_edges * len(walls) / sum(walls)
    report.show("edges_per_s", edges_per_s, "1/s", len(walls), "edges colored / solve time")
    calibrator.show(report, label)
    scale = calibrator.scale()
    out = {"op_ms": statistics.mean(walls) * 1e3 * scale, "work_per_s": edges_per_s / scale}
    report.show("op_ms", out["op_ms"], "ms", len(walls), "mean solve at reference speed")
    report.show("work_per_s", out["work_per_s"], "1/s", len(walls),
                "edges_per_s at reference speed")
    return out, walls


def run(config: Dict, seed: int, seconds: float, trace: bool, report: Report) -> None:
    from repro import api
    from repro.core.slack import uniform_instance
    from repro.graphs import generators
    from repro.verification.checkers import list_coloring_violations

    n, degree = config["n"], config["degree"]
    gen_walls: List[float] = []

    def setup(graph_seed: int):
        start = time.perf_counter()
        graph = generators.random_regular_graph(n, degree, seed=graph_seed)
        gen_walls.append(time.perf_counter() - start)
        return graph, uniform_instance(graph)

    import networkx  # noqa: F401 - imported lazily by the generator; not set-up work

    setup_s, (graph, instance), setup_walls, setup_speed = time_setups(
        setup, setup_seeds(seed, SETUP_REPEATS)
    )
    report.inputs = digest(graph.edge_endpoints(e) for e in graph.edges())
    report.note(
        f"graph: random {degree}-regular, n={n}, m={graph.num_edges}, seed={seed}, "
        f"digest {report.inputs}"
    )
    report.show("setup_s", setup_s, "s", len(setup_walls),
                "median of generate + uniform_instance over family seeds, reference speed")
    setup_speed.show(report, "setup")
    report.metrics["setup_s"] = setup_s

    # The first solve warms the process up and is the reference every
    # timed solve must reproduce exactly.
    reference = api.color_edges_local(graph, instance=instance)
    bound = 2 * degree - 1
    report.check(reference.is_proper, "first solve is not a proper edge coloring")
    report.check(len(reference.colors) == graph.num_edges, "first solve left edges uncolored")
    report.check(
        len(set(reference.colors.values())) <= bound,
        f"first solve uses more than 2Δ−1 = {bound} colors",
    )
    report.check(
        not list_coloring_violations(graph, reference.colors, instance.lists),
        "first solve violates the instance lists",
    )
    breakdown = reference.details["round_breakdown"]
    report.note(f"rounds: {reference.rounds} total, breakdown {breakdown}")

    solves = max(config["min_ops"], round(seconds * config["ops_per_s"]))
    if not trace:
        report.metrics.update(_pass(api, graph, instance, reference, solves, report, "timed")[0])
        return

    import layers

    solves = max(config["min_ops"], solves // 2)
    plain, _ = _pass(api, graph, instance, reference, solves, report, "untraced")
    recorder = layers.Recorder()
    recorder.install(layers.SOLVER_LAYERS)
    try:
        traced, walls = _pass(api, graph, instance, reference, solves, report, "traced",
                              recorder)
    finally:
        recorder.uninstall()
    summary = recorder.summary()
    covered = sum(entry["self_s"] for entry in summary.values())
    report.layers.update(layers.flatten(summary))
    report.layers.update({f"rounds.{label}": breakdown.get(label, 0) for label in ROUND_LABELS})
    report.layers.update(
        {
            "rounds.total": reference.rounds,
            "graphs.generate_s": statistics.median(gen_walls),
            "trace.ops": solves,
            "trace.uncovered_share": 1.0 - covered / sum(walls),
            "trace.overhead.op_ms": traced["op_ms"] / plain["op_ms"] - 1.0,
            "trace.overhead.work_per_s": traced["work_per_s"] / plain["work_per_s"] - 1.0,
        }
    )

