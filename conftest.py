"""Repository-level pytest configuration.

Makes ``repro`` importable directly from the source tree, so the test
suite and the benchmarks run even when the package has not been installed
(e.g. on machines where editable installs are unavailable offline).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf_smoke: fast wall-clock budget assertions (select with -m perf_smoke)",
    )
    config.addinivalue_line("markers", "slow: long-running end-to-end tests")
