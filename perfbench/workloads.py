"""The benchmark's workloads: the helmqo CLI argv of each and the invariants
its output must satisfy on every seed.  Why each was chosen, and which
layers it stresses or bypasses, is recorded in README.md.

The checks test invariants with tolerances, never bytes: eigenvalue columns
move by about 1e-13 between seeds, and a deliberate correctness fix must not
count as a failure.  The SHA-256 of each output is reported separately, as
information, so that a refactor can show its CSVs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]   # the subcommand and its options; the runner
    #                         adds ``--seed S`` before and ``-o FILE`` after
    check: Callable[[list[dict], str], list[str]]
    #       (CSV rows, CLI stdout) -> problems found; empty means correct
    final_ndof: Callable[[list[dict], str], int]


def _certify_check(rows: list[dict], stdout: str) -> list[str]:
    if not rows:
        return ["empty certification CSV"]
    problems = []
    *earlier, last = rows
    if last["certified"] != "true":
        problems.append(f"last row not certified: {last}")
    if int(last["i_star"]) != 9:
        problems.append(f"i_star is {last['i_star']}, expected 9")
    lo, hi = float(last["lambda_lo"]), float(last["lambda_hi"])
    if not lo < 400.0 < hi:
        problems.append(f"k^2 = 400 not bracketed by [{lo!r}, {hi!r}]")
    early = [r["iter"] for r in earlier if r["certified"] != "false"]
    if early:
        problems.append(f"rows {early} certified before the last row")
    return problems


STUDY_NDOF = [121, 529, 2209, 9025, 36481]


def _study_check(rows: list[dict], stdout: str) -> list[str]:
    problems = []
    ndof = [int(r["ndof"]) for r in rows]
    if ndof != STUDY_NDOF:
        return [f"ndof column {ndof}, expected {STUDY_NDOF}"]
    err = [float(r["error"]) for r in rows]
    for k in (2, 3, 4):
        if not err[k - 1] >= 3.5 * err[k]:
            problems.append(f"L2 error fell only {err[k - 1] / err[k]:.3f}x "
                            f"from row {k - 1} to row {k}")
    ev_i, ev_ipo = float(rows[-1]["EV_i"]), float(rows[-1]["EV_ipo"])
    if not ev_i < 100.0 < ev_ipo:
        problems.append(f"k^2 = 100 not bracketed by [{ev_i!r}, {ev_ipo!r}]")
    return problems


def unit_square_eigenvalues(count: int) -> list[float]:
    """The ``count`` smallest Dirichlet Laplace eigenvalues of the unit
    square, pi^2 (i^2 + j^2) with multiplicity, enumerated independently
    of helmqo."""
    # (1, 1..count) alone gives count values below any with i or j > count
    values = sorted(math.pi ** 2 * (i * i + j * j)
                    for i in range(1, count + 1) for j in range(1, count + 1))
    return values[:count]


EIG_PAIRS = 50


def _eig_check(rows: list[dict], stdout: str) -> list[str]:
    if len(rows) != EIG_PAIRS:
        return [f"{len(rows)} eigenpairs, expected {EIG_PAIRS}"]
    problems = []
    bounded = 0
    for row, exact in zip(rows, unit_square_eigenvalues(EIG_PAIRS)):
        lam = float(row["lambda"])
        if abs(lam - exact) / exact > 1e-2:
            problems.append(f"index {row['index']}: lambda {lam!r} is more "
                            f"than 1% from {exact!r}")
        if row["lower"]:
            bounded += 1
            lower, upper = float(row["lower"]), float(row["upper"])
            if not lower <= exact <= upper:
                problems.append(f"index {row['index']}: exact {exact!r} "
                                f"outside [{lower!r}, {upper!r}]")
    if bounded == 0:
        problems.append("no row carries a guaranteed lower bound")
    return problems


def _last_ndof(rows: list[dict], stdout: str) -> int:
    return int(rows[-1]["ndof"])


def _reported_ndof(rows: list[dict], stdout: str) -> int:
    # `helmqo eig -o FILE` reports the dof count only on stdout
    match = re.search(r"ndof = (\d+)", stdout)
    if match is None:
        raise ValueError(f"no 'ndof = N' in the eig output {stdout!r}")
    return int(match.group(1))


WORKLOADS = {w.name: w for w in [
    Workload(
        "certify-cr-hole",
        ("certify", "--geometry", "square-hole", "--outer", "0.75",
         "--inner", "0.3", "--n", "10", "--k2", "400", "--family", "cr",
         "--refine", "adaptive", "--estimate", "cr"),
        check=_certify_check, final_ndof=_last_ndof),
    Workload(
        "study-p1-square",
        ("study", "--geometry", "unit-square", "--n", "12", "--k2", "100",
         "--family", "p1", "--p", "1", "--refinements", "5"),
        check=_study_check, final_ndof=_last_ndof),
    Workload(
        "eig-cr-ladder",
        ("eig", "--geometry", "unit-square-unstructured", "--n", "160",
         "--family", "cr", "--m", "50"),
        check=_eig_check, final_ndof=_reported_ndof),
]}


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))
