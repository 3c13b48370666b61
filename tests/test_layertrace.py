"""The benchmark's layer trace still binds to the library.

``perfbench/layertrace.py`` reads library signatures and results in its
hooks (``ldlt``'s arguments and factor, the indicator's values, the
marked set of ``refine_bisection``, the pairs of ``eigs_smallest``).
Here the certify workload of ``perfbench/workloads.py`` runs under the
tracer: it must exit 0, every hook must fire, and its CSV must be the
untraced run's, byte for byte.
"""

import contextlib
import sys
from pathlib import Path

from helmqo.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layertrace import HOOKS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_certify_cr_hole(path: Path, tracer=None) -> bytes:
    argv = ["--seed", "0", *WORKLOADS["certify-cr-hole"].argv,
            "-o", str(path)]
    with tracer.installed() if tracer else contextlib.nullcontext():
        assert main(argv) == 0
    return path.read_bytes()


def test_every_hook_fires_and_tracing_changes_no_byte(tmp_path):
    tracer = Tracer()
    traced = run_certify_cr_hole(tmp_path / "traced.csv", tracer)
    fired = {name for name, *_ in tracer.spans}
    assert set(HOOKS) <= fired, f"hooks that never fired: " \
        f"{sorted(set(HOOKS) - fired)}"
    assert traced == run_certify_cr_hole(tmp_path / "untraced.csv")
