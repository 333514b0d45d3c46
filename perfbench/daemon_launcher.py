"""Start a ``repro serve`` daemon in this process, optionally traced.

    python3 perfbench/daemon_launcher.py --artifact PATH [--trace-out PATH]

With ``--trace-out`` the serving layer wrappers of :mod:`layers` are
installed before :func:`repro.serving.daemon.run_daemon` loads the
artifact; after the graceful shutdown the spans and the per-layer
summary are written to that path.  Journaling is on, fsync is off, and
the overlay is folded into a fresh base at :data:`REBASE_THRESHOLD`.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

#: Rebase threshold (share of base edges) of the daemon and its in-process
#: twin: low enough that serve-churn's stream folds the overlay several times.
REBASE_THRESHOLD = 0.005


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    from repro.serving.artifact import RebasePolicy
    from repro.serving.daemon import run_daemon

    recorder = None
    if args.trace_out:
        import layers

        recorder = layers.Recorder()
        recorder.install(layers.SERVING_LAYERS)
    code = run_daemon(args.artifact, "127.0.0.1:0", journal=True, fsync=False,
                      rebase_policy=RebasePolicy(threshold=REBASE_THRESHOLD))
    if recorder is not None:
        recorder.uninstall()
        recorder.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
