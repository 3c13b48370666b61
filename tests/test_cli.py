import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_choices, dense_spectrum
from helmqo.certify import GaussianBump, SineProduct

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
EXIT_CODES = {0, 2, 3, 4, 5, 6}    # the codes the CLI documents


def run_cli(args, cwd=None, env_extra=None):
    # the CLI runs in its own interpreter with ``src`` on PYTHONPATH, so a
    # bare ``python -m pytest`` from a checkout tests this checkout
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(SRC))
    if env_extra:
        env.update(env_extra)
    res = subprocess.run([sys.executable, "-m", "helmqo.cli", *args],
                         capture_output=True, text=True, cwd=cwd, env=env)
    # every failure maps to a documented code with a one-line message
    assert res.returncode in EXIT_CODES, res.stderr
    assert "Traceback" not in res.stderr
    return res


class TestHelp:
    @pytest.mark.parametrize("sub,name", [([], "top"), (["mesh"], "mesh"),
                                          (["eig"], "eig"),
                                          (["certify"], "certify"),
                                          (["study"], "study")])
    def test_golden_help(self, sub, name):
        res = run_cli([*sub, "--help"])
        assert res.returncode == 0
        golden = (GOLDEN / f"help_{name}.txt").read_text()
        assert res.stdout == golden

    def test_choices_are_the_enums(self):
        # --family and the tag flags offer exactly the enums' members,
        # spelled as the CLI resolves them
        import argparse
        from helmqo.cli import _build_parser
        from helmqo.mesh import BoundaryTag
        from helmqo.spaces import ElementFamily
        top = _build_parser()
        commands = next(a.choices for a in top._actions
                        if isinstance(a, argparse._SubParsersAction))
        seen = []
        for command, parser in commands.items():
            for action in parser._actions:
                flag = action.option_strings[-1:]
                if flag == ["--family"]:
                    assert [ElementFamily(c) for c in action.choices] \
                        == list(ElementFamily)
                elif flag in (["--tag"], ["--outer-tag"], ["--inner-tag"]):
                    assert [BoundaryTag[c.upper()] for c in action.choices] \
                        == list(BoundaryTag)
                else:
                    continue
                seen.append((command, flag[0]))
        assert len(seen) == 3 + 4 * 3

    def test_unknown_flag_rejected(self):
        res = run_cli(["mesh", "--geometry", "unit-square", "--frobnicate"])
        assert res.returncode == 2

    @pytest.mark.parametrize("argv", [
        # --k once parsed as --k2 100, with exit 0
        ["certify", "--geometry", "unit-square", "--n", "8", "--k", "100",
         "--family", "p1", "--istar", "6"],
        ["study", "--geometry", "unit-square", "--n", "4", "--k2", "10",
         "--family", "p1", "--refine", "2"],
        ["--se", "1", "mesh", "--geometry", "unit-square"],
    ], ids=["certify-k", "study-refine", "top-seed"])
    def test_prefix_of_a_flag_exit_2(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        res = run_cli([*argv, "-o", str(out)])
        assert res.returncode == 2
        assert not out.exists()

    def test_readme_commands_parse(self):
        # a README that still shows a deleted flag fails here
        from helmqo.cli import _build_parser
        block = re.search(r"## Command line\n+```bash\n(.*?)```",
                          README.read_text(), re.S).group(1)
        commands = [shlex.split(line)[1:] for line
                    in block.replace("\\\n", " ").splitlines()
                    if line.startswith("helmqo ")]
        assert len(commands) == 7
        for argv in commands:
            try:
                _build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {argv}")


class TestMeshCommand:
    def test_generate_unit_square(self, tmp_path):
        out = tmp_path / "sq.mesh"
        res = run_cli(["mesh", "--geometry", "unit-square", "--n", "8",
                       "-o", str(out)])
        assert res.returncode == 0
        from helmqo.mesh import read_mesh
        mesh = read_mesh(out.read_text())
        assert mesh.n_triangles == 128

    def test_square_hole_topology(self, tmp_path):
        out = tmp_path / "hole.mesh"
        res = run_cli(["mesh", "--geometry", "square-hole", "--outer", "2",
                       "--inner", "0.5", "-o", str(out)])
        assert res.returncode == 0
        from helmqo.mesh import read_mesh
        m = read_mesh(out.read_text())
        assert m.n_vertices - m.n_edges + m.n_triangles == 0

    @pytest.mark.parametrize("flag,value,message", [
        ("--n", "-3", "n must be >= 1"),
        ("--outer", "inf", "both finite"),
        ("--inner", "nan", "both finite")],
        ids=["n-negative", "outer-inf", "inner-nan"])
    def test_bad_hole_exit_2(self, flag, value, message):
        # an argument error, not a file error (exit 3)
        res = run_cli(["mesh", "--geometry", "square-hole", flag, value])
        assert res.returncode == 2
        assert message in res.stderr

    def test_validate_good(self, tmp_path):
        out = tmp_path / "sq.mesh"
        run_cli(["mesh", "--geometry", "unit-square", "--n", "2",
                 "-o", str(out)])
        res = run_cli(["mesh", "--validate", str(out)])
        assert res.returncode == 0

    def test_validate_bad_exit_3_with_line(self, tmp_path):
        bad = tmp_path / "bad.mesh"
        bad.write_text("$Vertices 2\n0.0 0.0\n1.0 0.0\n"
                       "$Triangles 1\n0 1 99\n$BoundaryEdges 0\n")
        res = run_cli(["mesh", "--validate", str(bad)])
        assert res.returncode == 3
        assert "line 5" in res.stderr

    def test_missing_file_exit_3(self):
        res = run_cli(["mesh", "--validate", "/nonexistent.mesh"])
        assert res.returncode == 3

    @pytest.mark.parametrize("text,line", [
        ("$Vertices 1000000000000\n0 0\n", 1),
        ("$Vertices 3\n0 0\n1 0\n0 1\n$Triangles 100000000000000\n"
         "0 1 2\n$BoundaryEdges 0\n", 5)], ids=["vertices", "triangles"])
    def test_huge_section_count_exit_3(self, tmp_path, text, line):
        # numpy once failed to allocate the section: a traceback, exit 1
        bad = tmp_path / "huge.mesh"
        bad.write_text(text)
        res = run_cli(["mesh", "--validate", str(bad)])
        assert res.returncode == 3
        assert f"error: line {line}:" in res.stderr


class TestEmptyMesh:
    """A mesh file with no triangles is a file error (exit 3) in every
    subcommand that reads one."""

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.mesh"
        path.write_text("$Vertices 0\n$Triangles 0\n$BoundaryEdges 0\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["mesh", "--validate"],
        # once a ZeroDivisionError at the bound's cap 1/(kappa h)^2
        ["certify", "--family", "cr", "--estimate", "cr", "--k2", "10",
         "--mesh"],
        # once exit 2: "zero-size array to reduction operation minimum"
        ["study", "--family", "p1", "--k2", "10", "--refinements", "1",
         "--mesh"]], ids=["mesh", "certify", "study"])
    def test_no_triangles_exit_3(self, empty, argv):
        res = run_cli([*argv, empty])
        assert res.returncode == 3
        assert "error: a mesh needs at least one triangle" in res.stderr


class TestOneMeshSource:
    """Each mesh flag given is used: a second mesh source, or a hole's tag
    on a mesh without the hole, exits 2 instead of being dropped."""

    @pytest.fixture
    def mesh_file(self, tmp_path):
        from helmqo.mesh import build_unit_square, write_mesh
        path = tmp_path / "sq.mesh"
        path.write_text(write_mesh(build_unit_square(4)))
        return str(path)

    @pytest.mark.parametrize("command", [
        ["eig", "--family", "cr", "--m", "3"],
        ["certify", "--k2", "30", "--family", "cr", "--estimate", "cr"],
        ["study", "--k2", "10", "--family", "p1", "--refinements", "1"]],
        ids=["eig", "certify", "study"])
    def test_mesh_and_geometry_exit_2(self, tmp_path, mesh_file, command):
        # the file was read and --geometry ignored, with exit 0
        out = tmp_path / "out.csv"
        res = run_cli([*command, "--mesh", mesh_file, "--geometry",
                       "square-hole", "-o", str(out)])
        assert res.returncode == 2
        assert "give --mesh or --geometry, not both" in res.stderr
        assert not out.exists()

    def test_validate_and_geometry_exit_2(self, mesh_file):
        res = run_cli(["mesh", "--validate", mesh_file, "--geometry",
                       "square-hole"])
        assert res.returncode == 2
        assert "give --validate or --geometry, not both" in res.stderr

    def test_validate_and_output_exit_2(self, tmp_path, mesh_file):
        # the file was validated and -o ignored, with exit 0
        out = tmp_path / "other.mesh"
        res = run_cli(["mesh", "--validate", mesh_file, "-o", str(out)])
        assert res.returncode == 2
        assert "give -o or --validate, not both" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--outer-tag", "--inner-tag"])
    @pytest.mark.parametrize("source", [
        ["mesh", "--geometry", "unit-square"],
        ["mesh", "--geometry", "unit-square-unstructured"],
        ["eig", "--family", "cr", "--m", "3", "--mesh"]],
        ids=["unit-square", "unit-square-unstructured", "mesh-file"])
    def test_hole_tag_off_the_hole_exit_2(self, tmp_path, mesh_file, source,
                                          flag):
        out = tmp_path / "out"
        argv = [*source, mesh_file] if source[-1] == "--mesh" else source
        res = run_cli([*argv, flag, "neumann", "-o", str(out)])
        assert res.returncode == 2
        assert ("--outer-tag and --inner-tag apply to --geometry "
                "square-hole only") in res.stderr
        assert not out.exists()


    @pytest.mark.parametrize("flag,value", [("--n", "6"),
                                            ("--outer", "0.75"),
                                            ("--inner", "0.3"),
                                            ("--tag", "neumann")])
    @pytest.mark.parametrize("source", [
        ["eig", "--family", "cr", "--m", "3", "--mesh"],
        ["mesh", "--validate"]], ids=["mesh-file", "validate"])
    def test_geometry_flag_with_a_mesh_file_exit_2(self, tmp_path, mesh_file,
                                                   source, flag, value):
        # the file was read with its own tags and size, and the flag
        # dropped, with exit 0
        out = tmp_path / "out.csv"
        extra = ["-o", str(out)] if source[0] == "eig" else []
        res = run_cli([*source, mesh_file, flag, value, *extra])
        assert res.returncode == 2
        assert "apply to --geometry" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--outer", "0.75"),
                                            ("--inner", "0.3")])
    @pytest.mark.parametrize("geometry", ["unit-square",
                                          "unit-square-unstructured"])
    def test_hole_size_off_the_hole_exit_2(self, tmp_path, geometry, flag,
                                           value):
        out = tmp_path / "out.mesh"
        res = run_cli(["mesh", "--geometry", geometry, flag, value,
                       "-o", str(out)])
        assert res.returncode == 2
        assert ("--outer, --inner, --outer-tag and --inner-tag apply to "
                "--geometry square-hole only") in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["mesh"],
        ["eig", "--family", "cr", "--m", "3"],
        ["certify", "--k2", "30", "--family", "cr", "--estimate", "cr"],
        ["study", "--k2", "10", "--family", "p1", "--refinements", "1"]],
        ids=["mesh", "eig", "certify", "study"])
    def test_tag_beside_both_hole_tags_exit_2(self, tmp_path, command):
        # --tag was dropped, and the mesh built as without it, with exit 0
        out = tmp_path / "out"
        res = run_cli([*command, "--geometry", "square-hole", "--n", "2",
                       "--tag", "neumann", "--outer-tag", "dirichlet",
                       "--inner-tag", "dirichlet", "-o", str(out)])
        assert res.returncode == 2
        assert ("--tag applies to no boundary when --outer-tag and "
                "--inner-tag are both given") in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,other", [("--outer-tag", "--inner-tag"),
                                            ("--inner-tag", "--outer-tag")])
    def test_tag_beside_one_hole_tag_tags_the_other_side(self, tmp_path,
                                                         flag, other):
        hole = ["mesh", "--geometry", "square-hole", "--n", "2", flag,
                "dirichlet"]
        files = [tmp_path / f"{i}.mesh" for i in range(3)]
        for extra, path in zip(([], ["--tag", "neumann"],
                                [other, "neumann"]), files):
            assert run_cli([*hole, *extra, "-o", str(path)]).returncode == 0
        plain, tagged, explicit = (path.read_bytes() for path in files)
        assert tagged == explicit != plain


class TestEigCommand:
    @pytest.mark.parametrize("geometry", cli_choices("--geometry"))
    def test_mesh_file_matches_geometry(self, tmp_path, geometry):
        # the mesh file `helmqo mesh` writes is the geometry's mesh to the
        # last bit: eig on either gives the same bytes
        flags = ["--geometry", geometry, "--n", "6"]
        mesh_file = tmp_path / "g.mesh"
        read, built = tmp_path / "read.csv", tmp_path / "built.csv"
        seed = ["--seed", "3"]
        eig = [*seed, "eig", "--family", "cr", "--m", "3"]
        assert run_cli([*seed, "mesh", *flags, "-o", str(mesh_file)]
                       ).returncode == 0
        res = run_cli([*eig, "--mesh", str(mesh_file), "-o", str(read)])
        assert res.returncode == 0, res.stderr
        assert run_cli([*eig, *flags, "-o", str(built)]).returncode == 0
        assert read.read_bytes() == built.read_bytes()

    def test_same_bytes_at_a_fixed_blas_thread_count(self, tmp_path):
        # the promise is per thread count: whether 1 and 2 threads agree
        # depends on the BLAS build, so that is not asserted
        args = ["eig", "--geometry", "unit-square-unstructured", "--n", "60",
                "--family", "cr", "--m", "30"]
        for threads in ("1", "2"):
            outs = [tmp_path / f"{threads}-{run}.csv" for run in (0, 1)]
            for out in outs:
                res = run_cli([*args, "-o", str(out)],
                              env_extra={"OPENBLAS_NUM_THREADS": threads})
                assert res.returncode == 0, res.stderr
            assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_p1_first_eigenvalue(self, tmp_path):
        out = tmp_path / "eig.csv"
        res = run_cli(["eig", "--geometry", "unit-square", "--n", "64",
                       "--family", "p1", "--m", "3", "-o", str(out)])
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,lambda,lower,upper"
        lam1 = float(lines[1].split(",")[1])
        exact = 2 * math.pi ** 2
        assert exact < lam1 < exact * 1.005
        assert lines[1].split(",")[2] == ""   # no bounds for P1

    def test_cr_enclosure(self, tmp_path):
        out = tmp_path / "eig.csv"
        res = run_cli(["eig", "--geometry", "unit-square", "--n", "64",
                       "--family", "cr", "--m", "1", "-o", str(out)])
        assert res.returncode == 0
        _, lam, lower, upper = out.read_text().strip().splitlines()[1] \
            .split(",")
        exact = 2 * math.pi ** 2
        assert float(lower) <= exact <= float(upper)

    @pytest.mark.parametrize("family", ["p1", "cr"])
    def test_rows_are_eigenpairs_with_bounds(self, tmp_path, family):
        from helmqo.certify import _fmt
        from helmqo.mesh import build_unit_square
        from helmqo.spaces import ElementFamily, build_space
        from helmqo.sparsela import eigs_smallest
        from helmqo.spectral import compute_bounds
        out = tmp_path / "eig.csv"
        res = run_cli(["eig", "--geometry", "unit-square", "--n", "12",
                       "--family", family, "--m", "4", "-o", str(out)])
        assert res.returncode == 0, res.stderr
        space = build_space(build_unit_square(12), ElementFamily(family))
        E = eigs_smallest(*space.pencil, 4)
        bounds = (compute_bounds(space, E) if family == "cr"
                  else [None] * 4)
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        for i, (row, lam, b) in enumerate(zip(rows, E.values, bounds)):
            lower = b.lower if b else None
            upper = b.upper if b else None
            assert row == f"{i + 1},{_fmt(lam)},{_fmt(lower)},{_fmt(upper)}"

    def test_cr_pure_neumann_zero_mode(self, tmp_path):
        # the zero eigenvalue comes out roundoff-negative; 0 bounds it
        out = tmp_path / "eig.csv"
        res = run_cli(["eig", "--geometry", "unit-square", "--n", "24",
                       "--tag", "neumann", "--family", "cr", "--m", "3",
                       "-o", str(out)])
        assert res.returncode == 0, res.stderr
        rows = [[float(x) for x in line.split(",")[2:]]
                for line in out.read_text().strip().splitlines()[1:]]
        lower, upper = rows[0]
        assert lower <= 0.0 <= upper
        for lower, upper in rows[1:]:
            assert lower <= math.pi ** 2 <= upper

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_copy_of_a_four_fold_eigenvalue_exit_0(self, tmp_path,
                                                         seed):
        # the flagship hole's CR pencil (224 dofs) has a 4-fold eigenvalue
        # at indices 27-30; a block of 4 start vectors finds every copy, so
        # the 30-value ladder ends on the fourth and the count just below it
        # finds the 26 values below the multiplet
        from helmqo.mesh import build_square_with_hole
        from helmqo.spaces import CR, build_space
        A, M = build_space(build_square_with_hole(0.75, 0.3, 10), CR).pencil
        w = dense_spectrum(A, M)
        assert np.allclose(w[26:30], w[26], rtol=1e-9) and w[30] > w[26]
        out = tmp_path / "eig.csv"
        res = run_cli(["--seed", str(seed), "eig", "--geometry",
                       "square-hole", "--outer", "0.75", "--inner", "0.3",
                       "--n", "10", "--family", "cr", "--m", "30",
                       "-o", str(out)])
        assert res.returncode == 0, res.stderr
        lam = [float(line.split(",")[1])
               for line in out.read_text().strip().splitlines()[1:]]
        assert np.allclose(lam, w[:30], rtol=1e-10)
        assert np.allclose(lam[26:30], w[26], rtol=1e-10)

    def test_ladder_missing_a_copy_exit_4(self, tmp_path, monkeypatch,
                                          capsys):
        # a ladder that lost one copy of the 4-fold eigenvalue at indices
        # 27-30 ends one eigenvalue too high, and the count just below that
        # last value finds 30, not 29
        import helmqo.cli
        from helmqo.sparsela import EigenResult, eigs_smallest

        def dropping(A, M, m, seed=0):
            E = eigs_smallest(A, M, m + 1, seed)
            keep = np.delete(np.arange(m + 1), 27)
            return EigenResult(E.values[keep], E.vectors[:, keep])
        monkeypatch.setattr(helmqo.cli, "eigs_smallest", dropping)
        out = tmp_path / "eig.csv"
        code = helmqo.cli.main(["eig", "--geometry", "square-hole",
                                "--outer", "0.75", "--inner", "0.3", "--n",
                                "10", "--family", "cr", "--m", "30", "-o",
                                str(out)])
        err = capsys.readouterr().err
        assert code == 4, err
        assert "29 ladder values lie below" in err
        assert "inertia counts 30" in err
        assert not out.exists()

    def test_ladder_ending_inside_a_double_eigenvalue_exit_0(self, tmp_path):
        # lambda_5 = lambda_6 on the CR unit square: the count just below
        # lambda_5 finds the four values below it
        out = tmp_path / "eig.csv"
        res = run_cli(["eig", "--geometry", "unit-square", "--n", "64",
                       "--family", "cr", "--m", "5", "-o", str(out)])
        assert res.returncode == 0, res.stderr
        lam = [float(line.split(",")[1])
               for line in out.read_text().strip().splitlines()[1:]]
        assert lam[3] < lam[4] * (1 - 1e-8)
        assert lam[4] == pytest.approx(10 * math.pi ** 2, rel=1e-2)

    def test_m_zero_exit_2(self):
        res = run_cli(["eig", "--geometry", "unit-square", "--family", "p1",
                       "--m", "0"])
        assert res.returncode == 2

    @pytest.mark.parametrize("command", [
        ["eig", "--family", "p1", "--m", "3"],
        ["certify", "--k2", "100", "--family", "p1", "--istar", "6"]],
        ids=["eig", "certify"])
    def test_tol_is_not_a_flag(self, command):
        # the residual bound is fixed: no flag loosens a certificate
        res = run_cli([*command, "--geometry", "unit-square", "--n", "8",
                       "--tol", "1e-6"])
        assert res.returncode == 2
        assert "unrecognized arguments: --tol 1e-6" in res.stderr

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_exit_2(self, tol):
        # a NaN tolerance once failed every residual check and an infinite
        # one accepted any residual; neither can be given now
        res = run_cli(["eig", "--geometry", "unit-square", "--n", "32",
                       "--family", "p1", "--m", "3", "--tol", tol])
        assert res.returncode == 2
        assert f"unrecognized arguments: --tol {tol}" in res.stderr


class TestCertifyCommand:
    def test_oracle_uniform_square(self, tmp_path):
        out = tmp_path / "cert.csv"
        res = run_cli(["certify", "--geometry", "unit-square", "--n", "8",
                       "--k2", "100", "--family", "p1", "--refine",
                       "uniform", "--istar", "6", "-o", str(out)])
        assert res.returncode == 0
        rows = out.read_text().strip().splitlines()
        last = rows[-1].split(",")
        assert float(last[6]) > 0       # condition > 0
        assert last[8] == "true"

    def test_cr_adaptive_square_hole(self, tmp_path):
        out = tmp_path / "cert.csv"
        mesh_out = tmp_path / "final.mesh"
        res = run_cli(["certify", "--geometry", "square-hole", "--outer",
                       "0.75", "--inner", "0.3", "--n", "10", "--k2", "400",
                       "--family", "cr", "--refine", "adaptive",
                       "--estimate", "cr", "-o", str(out),
                       "--mesh-out", str(mesh_out)])
        assert res.returncode == 0, res.stderr
        assert "certified" in res.stdout
        from helmqo.mesh import read_mesh
        read_mesh(mesh_out.read_text())   # final mesh is valid

    @pytest.mark.parametrize("refine", ["adaptive", "uniform"])
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_flagship_certifies_at_952_dofs(self, tmp_path, refine, seed):
        # the Rayleigh-Ritz upper bound closes the j* = 9 enclosure on the
        # second mesh (25.24 adaptive, 26.69 uniform, against a gap 29.23)
        out = tmp_path / "cert.csv"
        res = run_cli(["--seed", seed, "certify", "--geometry",
                       "square-hole", "--outer", "0.75", "--inner", "0.3",
                       "--n", "10", "--k2", "400", "--family", "cr",
                       "--refine", refine, "--estimate", "cr",
                       "-o", str(out)])
        assert res.returncode == 0, res.stderr
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [(r[1], r[8]) for r in rows] == [("224", "false"),
                                                 ("952", "true")]
        assert rows[-1][3] == "9"
        lo, hi = float(rows[-1][4]), float(rows[-1][5])
        assert lo < 400.0 < hi

    def test_forced_off_diagonal_pivot_not_resonant(self):
        # SuperLU's pivots at this shift read 224 zeros, yet the nearest
        # eigenvalue is 31.96 away; count_below recounts beside it
        res = run_cli(["certify", "--geometry", "unit-square", "--n", "32",
                       "--k2", "8192", "--family", "p1", "--istar", "407",
                       "--max-iters", "1"])
        assert res.returncode == 0, res.stderr

    def test_resonant_k2_exit_6(self):
        res = run_cli(["certify", "--geometry", "unit-square", "--n", "8",
                       "--k2", repr(2 * math.pi ** 2), "--family", "cr",
                       "--estimate", "cr", "--max-iters", "8"])
        assert res.returncode == 6
        assert "resonan" in res.stderr.lower()

    def test_exactly_singular_factor_exit_6(self):
        # 3072 is a discrete CR eigenvalue of the 16x16 square exactly
        res = run_cli(["certify", "--geometry", "unit-square", "--n", "16",
                       "--k2", "3072", "--family", "cr", "--refine",
                       "uniform", "--istar", "5", "--max-iters", "1"])
        assert res.returncode == 6
        assert "resonan" in res.stderr.lower()

    def test_budget_exit_5_with_partial_csv(self, tmp_path):
        out = tmp_path / "cert.csv"
        res = run_cli(["certify", "--geometry", "unit-square", "--n", "4",
                       "--k2", "100", "--family", "p1", "--istar", "6",
                       "--max-iters", "2", "-o", str(out)])
        assert res.returncode == 5
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 3   # header + two iterations

    def test_zero_iteration_budget_exit_2(self):
        res = run_cli(["certify", "--geometry", "unit-square", "--n", "4",
                       "--k2", "30", "--family", "p1", "--istar", "2",
                       "--max-iters", "0"])
        assert res.returncode == 2
        assert "max_iters must be >= 1" in res.stderr
        assert "Traceback" not in res.stderr

    def test_l_is_not_a_flag(self):
        # the indicator's extra pairs are estimator.INDICATOR_EXTRA_PAIRS
        res = run_cli(["certify", "--geometry", "unit-square", "--n", "4",
                       "--k2", "30", "--family", "p1", "--istar", "2",
                       "--l", "3"])
        assert res.returncode == 2
        assert "unrecognized arguments: --l 3" in res.stderr

    @pytest.mark.parametrize("k2", ["nan", "inf"])
    def test_nonfinite_k2_exit_2(self, k2):
        # not a false "resonance" (exit 6)
        res = run_cli(["certify", "--geometry", "square-hole", "--n", "4",
                       "--k2", k2, "--family", "cr", "--estimate", "cr"])
        assert res.returncode == 2
        assert "k2 must be positive and finite" in res.stderr

    def test_oracle_requires_istar(self):
        res = run_cli(["certify", "--geometry", "unit-square", "--k2",
                       "100", "--family", "p1"])
        assert res.returncode == 2

    def test_cr_estimate_with_istar_exit_2(self, tmp_path):
        # the README flagship: --istar was dropped, with exit 0
        out = tmp_path / "cert.csv"
        res = run_cli(["certify", "--geometry", "square-hole", "--outer",
                       "0.75", "--inner", "0.3", "--n", "10", "--k2", "400",
                       "--family", "cr", "--refine", "adaptive",
                       "--estimate", "cr", "--istar", "3", "-o", str(out)])
        assert res.returncode == 2
        assert "--istar applies to --estimate oracle only" in res.stderr
        assert not out.exists()

    def test_cr_estimate_requires_cr_family_exit_2(self, tmp_path):
        out = tmp_path / "cert.csv"
        res = run_cli(["certify", "--geometry", "unit-square", "--k2", "30",
                       "--family", "p1", "--estimate", "cr", "-o", str(out)])
        assert res.returncode == 2
        assert "--estimate cr requires --family cr" in res.stderr
        assert not out.exists()

    def test_no_output_file_on_usage_error(self, tmp_path):
        out = tmp_path / "cert.csv"
        res = run_cli(["certify", "--geometry", "unit-square", "--k2",
                       "100", "--family", "p1", "-o", str(out)])
        assert res.returncode == 2
        assert not out.exists()


class TestKappaGuard:
    """Liu's constant is ``spectral.KAPPA``: no flag sets it."""

    EIG = ["eig", "--geometry", "unit-square", "--n", "4", "--family", "cr",
           "--m", "2"]
    CERTIFY = ["certify", "--geometry", "unit-square", "--n", "4", "--k2",
               "30", "--family", "cr", "--estimate", "cr"]

    @pytest.mark.parametrize("cmd", ["eig", "certify"])
    def test_kappa_is_not_a_flag(self, tmp_path, cmd):
        out = tmp_path / "out.csv"
        args = self.EIG if cmd == "eig" else self.CERTIFY
        res = run_cli([*args, "--kappa", "0.2", "-o", str(out)])
        assert res.returncode == 2
        assert "unrecognized arguments: --kappa 0.2" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["eig", "certify"])
    @pytest.mark.parametrize("kappa", ["0.1892", "nan"])
    def test_below_proven_constant_exit_2(self, tmp_path, cmd, kappa):
        # A kappa below Liu's proven 0.1893 is still refused, and nothing
        # is written: the flag it was passed by no longer exists.
        out = tmp_path / "out.csv"
        args = self.EIG if cmd == "eig" else self.CERTIFY
        res = run_cli([*args, "--kappa", kappa, "-o", str(out)])
        assert res.returncode == 2
        assert f"unrecognized arguments: --kappa {kappa}" in res.stderr
        assert not out.exists()


class TestStudyCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["study", "--geometry", "unit-square", "--n", "8", "--k2",
                "100", "--family", "p1", "--p", "1", "--refinements", "3"]
        assert run_cli([*args, "-o", str(a)]).returncode == 0
        assert run_cli([*args, "-o", str(b)]).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_rows(self, tmp_path):
        out = tmp_path / "study.csv"
        res = run_cli(["study", "--geometry", "unit-square", "--n", "8",
                       "--k2", "100", "--family", "p1", "--refinements",
                       "2", "-o", str(out)])
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h,ndof,error,EV_i,EV_ipo"
        assert len(lines) == 3

    def test_flagged_factor_not_resonant(self, tmp_path):
        # SuperLU's LDL^T at k^2 = 8192 is forced off the diagonal, yet the
        # nearest eigenvalue is 31.96 away: the solve goes ahead
        res = run_cli(["study", "--geometry", "unit-square", "--n", "32",
                       "--k2", "8192", "--family", "p1", "--refinements",
                       "1", "-o", str(tmp_path / "study.csv")])
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("istar,empty", [(500, [True, True]),
                                             (60, [True, False])])
    def test_istar_past_free_dofs_left_empty(self, tmp_path, istar, empty):
        # a mesh with fewer free dofs than i* has no ladder value there:
        # EV_i is empty, like EV_ipo, not the 0.0 that stands for i* = 0
        out = tmp_path / "study.csv"
        res = run_cli(["study", "--geometry", "unit-square", "--k2", "100",
                       "--family", "p1", "--refinements", "2", "--istar",
                       str(istar), "-o", str(out)])
        assert res.returncode == 0, res.stderr
        rows = [r.split(",")
                for r in out.read_text().strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [49, 225]
        assert [r[3] == "" for r in rows] == empty
        assert [r[4] == "" for r in rows] == empty
        assert all(float(r[3]) > 100.0 for r in rows if r[3])

    @pytest.mark.parametrize("command", [
        ["eig", "--family", "p1", "--m", "3"],
        ["study", "--k2", "60", "--family", "p1", "--refinements", "1"]],
        ids=["eig", "study"])
    def test_seed_env_ignored(self, tmp_path, command):
        # --seed is the only seed: HQO_SEED in the environment changes no
        # byte
        outs = [tmp_path / "plain.csv", tmp_path / "env.csv"]
        for out, env in zip(outs, [None, {"HQO_SEED": "3"}]):
            res = run_cli([*command, "--geometry", "unit-square-unstructured",
                           "--n", "16", "-o", str(out)], env_extra=env)
            assert res.returncode == 0, res.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_mesh_file_is_used(self, tmp_path):
        mesh_file = tmp_path / "hole.mesh"
        out = tmp_path / "study.csv"
        assert run_cli(["mesh", "--geometry", "square-hole", "--outer", "2",
                        "--inner", "0.5", "-o", str(mesh_file)]
                       ).returncode == 0
        res = run_cli(["study", "--mesh", str(mesh_file), "--k2", "3",
                       "--family", "p1", "--refinements", "1",
                       "-o", str(out)])
        assert res.returncode == 0, res.stderr
        assert "conforming solution" in res.stdout
        from helmqo.mesh import read_mesh
        from helmqo.spaces import P1, build_space
        ndof = build_space(read_mesh(mesh_file.read_text()), P1).n_free
        row = out.read_text().strip().splitlines()[1].split(",")
        assert int(row[1]) == ndof

    def test_unit_square_file_gets_the_series(self, tmp_path):
        # the reference is chosen from the mesh: a unit square read from a
        # file is the same study as the built one
        mesh_file = tmp_path / "sq.mesh"
        assert run_cli(["mesh", "--geometry", "unit-square", "--n", "8",
                        "-o", str(mesh_file)]).returncode == 0
        study = ["study", "--k2", "100", "--family", "p1", "--refinements",
                 "2"]
        read, built = tmp_path / "read.csv", tmp_path / "built.csv"
        res = run_cli([*study, "--mesh", str(mesh_file), "-o", str(read)])
        assert res.returncode == 0, res.stderr
        assert "spectral sine series" in res.stdout
        assert run_cli([*study, "--geometry", "unit-square", "--n", "8",
                        "-o", str(built)]).returncode == 0
        assert read.read_bytes() == built.read_bytes()

    def test_tag_is_used(self, tmp_path):
        out = tmp_path / "study.csv"
        res = run_cli(["study", "--geometry", "unit-square", "--n", "8",
                       "--tag", "neumann", "--k2", "60", "--family", "p1",
                       "--refinements", "2", "-o", str(out)])
        assert res.returncode == 0, res.stderr
        assert "conforming solution" in res.stdout
        ndof = [int(r.split(",")[1])
                for r in out.read_text().strip().splitlines()[1:]]
        assert ndof == [81, 289]     # every vertex is free

    def test_seed_reaches_the_mesh(self, tmp_path):
        from helmqo.mesh import build_unit_square_unstructured
        outs = {}
        for seed in (0, 7):
            outs[seed] = tmp_path / f"study{seed}.csv"
            res = run_cli(["--seed", str(seed), "study", "--geometry",
                           "unit-square-unstructured", "--n", "8", "--k2",
                           "60", "--family", "p1", "--refinements", "1",
                           "-o", str(outs[seed])])
            assert res.returncode == 0, res.stderr
            row = outs[seed].read_text().strip().splitlines()[1].split(",")
            h = build_unit_square_unstructured(8, seed).h
            assert float(row[0]) == h
        assert outs[0].read_bytes() != outs[7].read_bytes()

    def test_resonant_mesh_exit_6(self):
        # 3072 is a discrete CR eigenvalue of the 16x16 square exactly
        res = run_cli(["study", "--geometry", "unit-square", "--n", "16",
                       "--k2", "3072", "--family", "cr", "--refinements",
                       "1"])
        assert res.returncode == 6
        assert "resonan" in res.stderr.lower()

    @pytest.mark.parametrize("k2", ["nan", "inf"])
    def test_nonfinite_k2_exit_2(self, k2):
        res = run_cli(["study", "--geometry", "unit-square", "--k2", k2,
                       "--family", "p1", "--refinements", "2"])
        assert res.returncode == 2
        assert "k2 must be positive and finite" in res.stderr

    def test_load_degree_is_not_a_flag(self, tmp_path):
        # the load is integrated by the one rule of degree
        # spaces.LOAD_DEGREE
        out = tmp_path / "study.csv"
        res = run_cli(["study", "--geometry", "unit-square", "--n", "4",
                       "--k2", "10", "--family", "p1", "--refinements", "2",
                       "--load-degree", "10", "-o", str(out)])
        assert res.returncode == 2
        assert "unrecognized arguments: --load-degree 10" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("istar", ["-1", "-2"])
    def test_negative_istar_exit_2(self, tmp_path, istar):
        # a negative index once read the ladder from its end, and exit 0
        out = tmp_path / "study.csv"
        res = run_cli(["study", "--geometry", "unit-square", "--k2", "100",
                       "--family", "p1", "--refinements", "2", "--istar",
                       istar, "-o", str(out)])
        assert res.returncode == 2
        assert "i_star must be >= 0" in res.stderr
        assert not out.exists()

    def test_cr_with_p_rejected(self):
        res = run_cli(["study", "--geometry", "unit-square", "--k2", "100",
                       "--family", "cr", "--p", "2", "--refinements", "2"])
        assert res.returncode == 2

    def test_bump_center_off_the_mesh_exit_2(self, tmp_path):
        # the default centre (0.6, 0.7) lies outside [-0.375, 0.375]^2: the
        # load was about 5e4 exp(-270) and the errors 1e-112, with exit 0
        out = tmp_path / "study.csv"
        res = run_cli(["study", "--geometry", "square-hole", "--outer",
                       "0.75", "--inner", "0.3", "--n", "10", "--k2", "400",
                       "--family", "cr", "--refinements", "2", "--rhs",
                       "gaussian-bump", "-o", str(out)])
        assert res.returncode == 2
        assert "--rhs-center 0.6 0.7" in res.stderr
        assert not out.exists()

    def test_bump_center_in_the_hole_exit_2(self, tmp_path):
        # (0, 0) lies in the mesh's bounding box but in its hole: the load
        # was e^-100 on the hole's edge and the errors 1e-46, with exit 0
        out = tmp_path / "study.csv"
        res = run_cli(["study", "--geometry", "square-hole", "--n", "8",
                       "--k2", "10", "--family", "p1", "--refinements", "2",
                       "--rhs", "gaussian-bump", "--rhs-center", "0", "0",
                       "-o", str(out)])
        assert res.returncode == 2
        assert "--rhs-center 0.0 0.0" in res.stderr
        assert not out.exists()

    SQUARE = ["--geometry", "unit-square", "--n", "4"]
    HOLE = ["--geometry", "square-hole", "--n", "8"]
    BUMP = ["--rhs", "gaussian-bump", "--rhs-center"]

    @pytest.mark.parametrize("geometry,rhs,message", [
        (SQUARE, [*BUMP, "0.5", "0.5", "--rhs-amplitude", "nan"],
         "amplitude=nan"),
        # NaN data on the hole is not a resonance (exit 6)
        (HOLE, [*BUMP, "0.3", "0.3", "--rhs-amplitude", "nan"],
         "amplitude=nan"),
        (HOLE, ["--rhs-modes", "1,1,inf"], "modes=((1, 1, inf),)"),
        # sin(0 pi x) vanishes: the data would be zero
        (SQUARE, ["--rhs-modes", "0,1,1"], "modes=((0, 1, 1.0),)"),
        (SQUARE, [*BUMP, "0.5", "0.5", "--rhs-width", "inf"], "width=inf"),
        (SQUARE, [*BUMP, "0.5", "inf"], "center=(0.5, inf)"),
        # identically zero data: every error would read 0.0
        (SQUARE, ["--rhs-modes", "1,1,0"], "modes=((1, 1, 0.0),)"),
        (SQUARE, ["--rhs-modes", "1,1,1;1,1,-1"],
         "modes=((1, 1, 1.0), (1, 1, -1.0))"),
        (SQUARE, [*BUMP, "0.5", "0.5", "--rhs-amplitude", "0"],
         "amplitude=0.0"),
    ], ids=["amplitude-square", "amplitude-hole", "coef-inf", "mode-0",
            "width-inf", "center-inf", "coef-0", "coefs-cancel",
            "amplitude-0"])
    def test_bad_rhs_data_exit_2(self, tmp_path, geometry, rhs, message):
        out = tmp_path / "study.csv"
        res = run_cli(["study", *geometry, "--k2", "10", "--family", "p1",
                       "--refinements", "1", *rhs, "-o", str(out)])
        assert res.returncode == 2
        assert message in res.stderr
        assert not out.exists()

    def test_unstable_sine_series_exit_2(self):
        # finite data, but too narrow a bump for 512 modes
        res = run_cli(["study", *self.SQUARE, "--k2", "10", "--family",
                       "p1", "--refinements", "1", *self.BUMP, "0.5", "0.5",
                       "--rhs-width", "400"])
        assert res.returncode == 2
        assert "sine series did not stabilize" in res.stderr

    def test_bump_center_on_the_unit_square_accepted(self, tmp_path):
        out = tmp_path / "study.csv"
        res = run_cli(["study", "--geometry", "unit-square", "--n", "4",
                       "--k2", "10", "--family", "p1", "--refinements", "2",
                       "--rhs", "gaussian-bump", "-o", str(out)])
        assert res.returncode == 0, res.stderr
        errors = [float(line.split(",")[2])
                  for line in out.read_text().splitlines()[1:]]
        assert len(errors) == 2 and min(errors) > 1e-6

    @pytest.mark.parametrize("rhs,stray", [
        (["--rhs-width", "3", "--rhs-center", "9", "9"],
         "--rhs-width applies to --rhs gaussian-bump only"),
        (["--rhs", "gaussian-bump", "--rhs-modes", "1,1,1"],
         "--rhs-modes applies to --rhs sine-product only"),
    ], ids=["bump-flags-on-sines", "modes-on-bump"])
    def test_rhs_flag_not_read_exit_2(self, tmp_path, rhs, stray):
        # both once wrote the bytes of the argv without the stray flags
        out = tmp_path / "study.csv"
        res = run_cli(["study", *self.SQUARE, "--k2", "10", "--family",
                       "p1", "--refinements", "2", *rhs, "-o", str(out)])
        assert res.returncode == 2
        assert stray in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("rhs,expected", [
        ([], SineProduct(((3, 4, 1.0), (4, 3, 1.0)))),
        (["--rhs", "gaussian-bump", "--rhs-width", "30"],
         GaussianBump(5e4, 30.0, (0.6, 0.7))),
    ], ids=["sine-product", "bump-width"])
    def test_omitted_rhs_flags_keep_their_defaults(self, rhs, expected):
        from helmqo.cli import _build_parser, _rhs
        args = _build_parser().parse_args(
            ["study", *self.SQUARE, "--k2", "10", "--family", "p1",
             "--refinements", "1", *rhs])
        assert _rhs(args) == expected


class TestDeepValidation:
    def test_too_many_pairs_exit_2(self):
        res = run_cli(["eig", "--geometry", "unit-square", "--n", "2",
                       "--family", "p1", "--m", "5"])
        assert res.returncode == 2
        assert "error:" in res.stderr
