"""helmqo benchmark: time to certificate on three CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a helmqo source checkout; helmqo is imported from its
``src/`` directory.  Every invocation goes through ``helmqo.cli.main`` with
``--seed N``, in one process with the BLAS/OpenMP thread counts pinned
before numpy loads.  Outputs are checked after every invocation (see
``workloads.py``); ``attempted``/``failed`` count the invocations.

``--trace 0`` invokes the workload, after one warm call, as often as it
starts within ``--seconds`` and prints the wall times; it reports the
end-to-end metrics:
  * ``setup_s``: median time for a fresh interpreter to ``import
    helmqo.cli`` (which loads numpy and scipy), over several processes;
  * ``peak_rss_mb``: peak resident memory of this process after its first
    invocation, when it has only imported helmqo and run the workload once;
  * ``final_ndof``: free dofs on the finest mesh solved on (the certified
    mesh for certify-cr-hole).

``--trace 1`` reports the per-layer metrics of ``layertrace.py``: after one
warm call it alternates traced and untraced invocations for ``--seconds``
(at least two traced and one untraced), requires every count to repeat
exactly and every CSV to be byte-identical with and without the wrappers,
and reports the median of each timing.  Its ``wall_s`` is the median wall
time of the untraced invocations.

Outputs, logs and spans go to ``.perfbench-out/`` in the checkout.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Pinned before numpy loads, here and in every child process.  Output CSVs
# are byte-comparable only at these settings: their last digits differ
# between one BLAS thread and the default.
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, parse_csv  # noqa: E402

SETUP_IMPORTS = 15      # fresh interpreters timed per run for setup_s
MIN_TRACED = 2          # counts must repeat across at least two


class Bench:
    """Invocations of one workload at one seed, with their outcomes."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.csv_path = OUT / f"{workload.name}.csv"
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.final_ndof: set[int] = set()

    def argv(self) -> list[str]:
        return ["--seed", str(self.seed), *self.workload.argv,
                "-o", str(self.csv_path)]

    def record(self, code, stdout: str, error: str | None = None) -> None:
        """Check one invocation's exit code and output."""
        self.attempted += 1
        problems = [error] if error else []
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                data = self.csv_path.read_bytes()
                rows = parse_csv(data.decode("utf-8"))
                problems += self.workload.check(rows, stdout)
                self.final_ndof.add(self.workload.final_ndof(rows, stdout))
                self.digests.add(hashlib.sha256(data).hexdigest())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload.name} seed {self.seed}: "
                  + "; ".join(problems), file=sys.stderr)

    def invoke(self, tracer=None) -> float:
        """One in-process ``helmqo.cli.main`` call; returns its wall time."""
        import helmqo.cli
        self.csv_path.unlink(missing_ok=True)
        out = io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(out):
            cm = tracer.installed() if tracer else contextlib.nullcontext()
            with cm:
                t0 = perf_counter()
                try:
                    code = helmqo.cli.main(self.argv())
                except SystemExit as exc:
                    code = exc.code
                except Exception:   # counted as a failed invocation
                    error = traceback.format_exc()
                elapsed = perf_counter() - t0
        self.record(code, out.getvalue(), error)
        return elapsed


def child_env() -> dict:
    env = dict(os.environ)              # THREADS included
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters that only import helmqo.cli.  One
    untimed import first compiles bytecode, as an installed CLI would have."""
    cmd = [sys.executable, "-c", "import helmqo.cli"]
    times = []
    for i in range(SETUP_IMPORTS + 1):
        t0 = perf_counter()
        # no timeout: with one, the wait polls and rounds up to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            times.append(perf_counter() - t0)
    return times


def tail_percentile(samples: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    q = math.floor(100 * (1 - 10 / len(samples)))
    if q < 1:
        return "no tail percentile (fewer than 11 samples)"
    return f"p{q}={statistics.quantiles(samples, n=100)[q - 1]:.4f}"


class GateError(RuntimeError):
    """A run-level check failed; the run reports no metrics."""


def single(values: set, what: str):
    """The one value all invocations agreed on."""
    if len(values) != 1:
        raise GateError(f"{what} differs between invocations: "
                        f"{sorted(values)}")
    return next(iter(values))


def run_untraced(bench: Bench, seconds: float) -> dict:
    setup = measure_setup(child_env())
    # The first invocation warms lazy imports and caches.  Until it ends,
    # this process has done nothing but import helmqo and run the workload
    # once, so its peak RSS is that of a one-shot CLI process.
    bench.invoke()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    walls = []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        walls.append(bench.invoke())
    print(f"wall_s: n={len(walls)} median={statistics.median(walls):.4f} "
          f"min={min(walls):.4f} max={max(walls):.4f} "
          f"{tail_percentile(walls)}")
    print(f"setup_s: n={len(setup)} "
          + " ".join(f"{t:.4f}" for t in setup))
    # the CLI promises byte-identical files for identical invocations
    single(bench.digests, "output CSV across identical invocations")
    return {"setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss,
            "final_ndof": single(bench.final_ndof, "final_ndof")}


def run_traced(bench: Bench, seconds: float) -> dict:
    from layertrace import Tracer
    bench.invoke()                      # warm call, untraced
    times, counts, walls, traced_walls = [], [], [], []
    deadline = perf_counter() + seconds
    with open(OUT / f"{bench.workload.name}.spans.jsonl", "w") as spans:
        # traced and untraced alternate: T U T [U T ...]
        while len(times) < MIN_TRACED or perf_counter() < deadline:
            if times:
                walls.append(bench.invoke())
            tracer = Tracer()
            traced_walls.append(bench.invoke(tracer))
            t, c = tracer.metrics()
            times.append(t)
            counts.append(c)
            tracer.write_spans(spans, len(times))
    print(f"marked fraction per call: {tracer.marked_per_call()}")
    for c in counts[1:]:
        if c != counts[0]:
            diff = {k: (counts[0][k], c[k]) for k in c if c[k] != counts[0][k]}
            raise GateError(f"counts differ between traced runs: {diff}")
    single(bench.digests, "output CSV with and without tracing")
    metrics = dict(counts[0], **{k: statistics.median(t[k] for t in times)
                                 for k in times[0]})
    metrics["wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - metrics["wall_s"])
    print(f"traced wall_s: {[round(w, 4) for w in traced_walls]}; "
          f"untraced: {[round(w, 4) for w in walls]}")
    return metrics


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "helmqo" / "cli.py").is_file():
        print(f"error: no helmqo sources under {SRC}; run from the root of a "
              "helmqo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    print("threads: " + " ".join(f"{k}={v}" for k, v in THREADS.items()))

    bench = Bench(WORKLOADS[args.workload], args.seed)
    run = run_traced if args.trace else run_untraced
    try:
        values = run(bench, args.seconds)
        gates_ok = True
    except GateError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        values, gates_ok = {}, False
    for digest in sorted(bench.digests):
        print(f"sha256 {bench.csv_path.name} {digest}")

    declared = declared_metrics(bool(args.trace))
    if gates_ok and {m["name"] for m in declared} != set(values):
        print(f"error: measured {sorted(values)}, BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        gates_ok = False
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    correct = gates_ok and bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
