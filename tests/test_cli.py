"""CLI behaviour: exit codes, output formats, caching."""

import importlib.util
import json
import os
import random
import subprocess
import sys
import time

import pytest

from linvariant import domain
from linvariant.budget import Budget, BudgetExceeded
from linvariant.cli import main
from linvariant.quaternions import build_algebra

ORACLE = os.path.join(os.path.dirname(__file__), "..", "benchmark",
                      "oracle.py")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _oracle():
    """The benchmark's dimension oracle, which imports nothing of the
    program."""
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestFdomain:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "fdomain", "--p", "3", "--nminus", "2")
        assert code == 0
        assert "vertices: 2" in out
        assert "edges: 1" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "fdomain", "--p", "3", "--nminus", "2",
                               "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info["n_vertices"] == 2
        assert info["vertex_stab_orders"] == [24, 24]

    def test_budget_exceeded_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "fdomain", "--p", "3", "--nminus", "2",
                               "--budget-secs", "0.0")
        assert code == 4
        assert "budget" in err

    def test_budget_checked_in_symbol_search(self):
        """The symbol search of build_algebra checks the budget on each
        edge m: for the prime disc 1201 the edges m < 1201 hold no pair, so
        a budget that runs out at its 1001st check stops the search inside
        them, before it reaches its first candidate pair."""

        class Checks(Budget):
            left = 1000

            def check(self):
                self.left -= 1
                if self.left < 0:
                    raise BudgetExceeded("check budget exceeded")

        with Checks().active():
            with pytest.raises(BudgetExceeded):
                build_algebra(1201)
        assert build_algebra(1201).disc == 1201

    def test_search_past_max_vertices_exit_3(self, capsys, monkeypatch):
        """A search that finds more vertex orbits than MAX_VERTICES, which
        validate cannot rule out when stabilizers are larger than +-1,
        exits 3 with a message."""
        monkeypatch.setattr(domain, "MAX_VERTICES", 1)
        code, _, err = run_cli(capsys, "fdomain", "--p", "3", "--nminus", "2")
        assert code == 3
        assert err.startswith("error: ") and "vertex orbits" in err


class TestBasis:
    def test_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--p", "3", "--nminus", "2",
                               "--weight", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_weight_two_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--p", "3", "--nminus", "2",
                               "--weight", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 0

    def test_eichler_level(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--p", "3", "--nminus", "2",
                               "--nplus", "5", "--weight", "4",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 4

    def test_three_prime_discriminant(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--p", "7", "--nminus", "30",
                               "--weight", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 5

    def test_space_sized_as_a_row(self, capsys):
        """basis computes the space at the precisions a row sizes it with:
        (2, 31) at weight 8 needs more splitting digits than 40."""
        code, out, _ = run_cli(capsys, "basis", "--p", "2", "--nminus", "31",
                               "--weight", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == _oracle().harmonic_dim(2, 31, 1, 8)

    def test_budget_checked(self, capsys):
        """basis honours --budget-secs: this space runs for about a minute
        unbounded, and exits 4 within 3 s on a budget of 1 s."""
        start = time.monotonic()
        code, _, err = run_cli(capsys, "basis", "--p", "5", "--nminus", "19",
                               "--nplus", "2", "--weight", "8",
                               "--budget-secs", "1")
        assert code == 4
        assert "budget" in err
        assert time.monotonic() - start < 3


class TestValidation:
    @pytest.mark.parametrize("argv", [
        ("fdomain", "--p", "4", "--nminus", "3"),
        ("fdomain", "--p", "3", "--nminus", "3"),   # p | Nminus
        ("fdomain", "--p", "3", "--nminus", "4"),   # not squarefree odd count
        ("basis", "--p", "3", "--nminus", "2", "--weight", "5"),
        ("basis", "--p", "3", "--nminus", "2", "--weight", "0"),
    ])
    def test_domain_errors_exit_3(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "error" in err

    def test_even_prime_count_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--p", "5", "--nminus", "6",
                               "--weight", "4")
        assert code == 3
        assert "odd number of prime factors" in err

    @pytest.mark.parametrize("argv", [
        # 2^89 - 1 is prime, but past the exact primality range
        ("fdomain", "--p", str(2**89 - 1), "--nminus", "3"),
        ("fdomain", "--p", "3317044064679887385961981", "--nminus", "2"),
        # N^- N^+ past the factoring bound of 10^9
        ("fdomain", "--p", "3", "--nminus", "1000000007"),
        ("basis", "--p", "3", "--nminus", "2", "--nplus", "1000000007",
         "--weight", "4"),
        ("linv", "--p", "5", "--nminus", "2", "--nplus", str(5 * 10**8 + 1),
         "--weight", "4"),
        # a domain of more than MAX_VERTICES = 200 vertex orbits: Eichler
        # mass 1510/12, 1202/12 and 99999988/12
        ("fdomain", "--p", "2", "--nminus", "1511"),
        ("basis", "--p", "3", "--nminus", "2", "--nplus", "1201",
         "--weight", "4"),
        ("fdomain", "--p", "2", "--nminus", "99999989"),
    ])
    def test_past_the_bounds_exit_3(self, argv):
        """In a fresh interpreter: an error message and exit 3, no
        traceback, within seconds."""
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "linvariant.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert time.monotonic() - start < 10
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("linv", "--p", "3", "--nminus", "2", "--weight", "four"),
        ("slopes", "--p", "3", "--nminus", "2", "--weights", "x..y"),
        ("basis", "--p", "3", "--nminus", "2"),
        ("linv", "--p", "3", "--nminus", "2", "--weight", "4", "--seed", "1"),
    ])
    def test_malformed_arguments_exit_3(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("linv", "--p", "2", "--nminus", "3", "--weight", "4", "--prec", "-3"),
        ("linv", "--p", "2", "--nminus", "3", "--weight", "4", "--prec", "0"),
        ("slopes", "--p", "2", "--nminus", "3", "--weights", "4..8",
         "--prec", "0"),
        ("linv", "--p", "3", "--nminus", "2", "--weight", "4",
         "--budget-secs", "-1"),
        ("fdomain", "--p", "3", "--nminus", "2", "--budget-secs", "nan"),
        ("slopes", "--p", "2", "--nminus", "3", "--weights", "6..4"),
        ("slopes", "--p", "2", "--nminus", "3", "--weights", "5..5"),
    ])
    def test_malformed_values_exit_3(self, capsys, tmp_path, argv):
        """A precision below one digit, a negative or undefined budget and
        a weight range without an even weight exit 3 with a message,
        before anything is computed or written."""
        try:
            code = main([*argv, "--cache-dir", str(tmp_path)])
        except SystemExit as exc:
            code = exc.code
        assert code == 3
        assert "error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ("linv", "--p", "2", "--nminus", "7", "--weight", "2", "--prec", "12"),
        ("linv", "--p", "5", "--nminus", "3", "--weight", "2"),
        ("slopes", "--p", "2", "--nminus", "3", "--weights", "2..4"),
    ])
    def test_weight_two_rows_exit_3(self, capsys, tmp_path, argv):
        """Weight-2 L-operator rows are rejected before any computation;
        `basis` still accepts weight 2 (TestBasis)."""
        code, _, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 3
        assert "weight >= 4" in err
        assert os.listdir(tmp_path) == []

    def test_budget_exceeded_exit_4(self, capsys, cache_dir, tmp_path):
        code, _, err = run_cli(
            capsys, "linv", "--p", "3", "--nminus", "2", "--weight", "6",
            "--prec", "10", "--budget-secs", "0.0",
            "--cache-dir", str(tmp_path))
        assert code == 4

    def test_budget_checked_in_domain_and_basis(self, capsys, tmp_path):
        """The domain search and the basis conditions check the budget: a
        row whose domain and sizing basis take about a minute exits 4 soon
        after its budget of 2 s runs out (it took 17.6 s when only later
        stages checked)."""
        start = time.monotonic()
        code, _, err = run_cli(
            capsys, "linv", "--p", "5", "--nminus", "19", "--nplus", "2",
            "--weight", "8", "--prec", "6", "--budget-secs", "2",
            "--cache-dir", str(tmp_path))
        assert code == 4
        assert "budget" in err
        assert time.monotonic() - start < 2 + 3
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ("linv", "--p", "2", "--nminus", "3", "--weight", "4",
         "--prec", "2000"),
        ("linv", "--p", "2", "--nminus", "3", "--weight", "4",
         "--prec", "20000"),
        ("linv", "--p", "2", "--nminus", "3", "--weight", "200",
         "--prec", "12"),
        ("basis", "--p", "2", "--nminus", "3", "--weight", "400"),
        ("linv", "--p", "2", "--nminus", "3", "--weight", "3000",
         "--prec", "5"),
        ("linv", "--p", "2", "--nminus", "3", "--weight", "20000",
         "--prec", "5"),
    ])
    def test_budget_checked_in_inner_loops(self, capsys, tmp_path, argv):
        """The rows of the lift's substitution matrices (--prec 2000), the
        2-adic square root of the splitting (--prec 20000) and the weight
        rows of the actions (--weight 200 to 20000) check the budget: each
        run took 50 s or more past its budget of 1 s when only the loops
        around them checked (weight 3000 10.6 s, and weight 20000 was still
        building a dense identity of 4 * 10^8 entries at 12 s), and now
        exits 4 within 3 s.  The square root now lifts by Newton steps in
        milliseconds, so the --prec 20000 row runs out later: in the
        pivots of the basis solve, or with a little more time in the rows
        of the lift's substitution matrices, each checked every 256
        entries."""
        start = time.monotonic()
        code, _, err = run_cli(capsys, *argv, "--budget-secs", "1",
                               "--cache-dir", str(tmp_path))
        assert code == 4
        assert "budget" in err
        assert time.monotonic() - start < 3

    def test_unusable_cache_dir_exit_3(self, capsys, tmp_path):
        """A regular file as the cache directory, given by --cache-dir or
        by $CACHE_DIR, is reported before any computation (a budget of 0 s
        would stop one with exit 4), with a message and no traceback."""
        path = tmp_path / "file"
        path.write_text("")
        row = ("linv", "--p", "2", "--nminus", "3", "--weight", "4",
               "--budget-secs", "0")
        code, _, err = run_cli(capsys, *row, "--cache-dir", str(path))
        assert code == 3
        assert err.startswith(f"error: unusable cache directory {path}")
        proc = subprocess.run([sys.executable, "-m", "linvariant.cli", *row],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC,
                                   "CACHE_DIR": str(path)})
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"error: unusable cache directory {path}")
        assert "Traceback" not in proc.stderr
        assert path.read_text() == ""

    def test_coarse_sizing_splitting_exits_2(self, capsys, tmp_path):
        """(2, 11) at weight 20 needs more splitting digits than the sizing
        context has: the row is undecidable (exit 2), never reported with
        dimension 0, and nothing is written; its dimension is 15."""
        code, out, _ = run_cli(
            capsys, "linv", "--p", "2", "--nminus", "11", "--weight", "20",
            "--prec", "6", "--format", "json", "--cache-dir", str(tmp_path))
        assert code in (0, 2)
        if code == 0:
            assert json.loads(out)["dim"] == 15
        else:
            assert os.listdir(tmp_path) == []


class TestLinv:
    def test_cached_json(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys, "linv", "--p", "3", "--nminus", "2", "--weight", "4",
            "--prec", "10", "--format", "json", "--cache-dir", cache_dir)
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 1
        assert data["slopes"] == [["0", 1]]
        assert data["l_invariants"][0]["value"].startswith("1 + 3^2")

    def test_cached_table(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys, "linv", "--p", "3", "--nminus", "2", "--weight", "4",
            "--prec", "10", "--cache-dir", cache_dir)
        assert code == 0
        assert "dim = 1" in out
        assert "L-invariant" in out

    def test_determinism_across_runs(self, capsys, cache_dir):
        args = ("linv", "--p", "3", "--nminus", "2", "--weight", "4",
                "--prec", "10", "--format", "json", "--cache-dir", cache_dir)
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_cache_file_written(self, capsys, cache_dir):
        run_cli(capsys, "linv", "--p", "3", "--nminus", "2", "--weight", "4",
                "--prec", "10", "--cache-dir", cache_dir)
        names = os.listdir(cache_dir)
        assert any(n.startswith("lresult_3_2_1_4_10") for n in names)

    def test_truncated_entry_is_recomputed(self, capsys, cache_dir, tmp_path):
        name = "lresult_3_2_1_4_10_v2.json"
        with open(os.path.join(cache_dir, name)) as f:
            committed = f.read()
        with open(tmp_path / name, "w") as f:
            f.write(committed[:len(committed) // 2])
        code, out, _ = run_cli(
            capsys, "linv", "--p", "3", "--nminus", "2", "--weight", "4",
            "--prec", "10", "--format", "json", "--cache-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out) == json.loads(committed)
        assert os.listdir(tmp_path) == [name]
        with open(tmp_path / name) as f:
            assert f.read() == committed

    def test_cache_dir_env(self, capsys, cache_dir, monkeypatch):
        monkeypatch.setenv("CACHE_DIR", cache_dir)
        code, out, _ = run_cli(
            capsys, "linv", "--p", "3", "--nminus", "2", "--weight", "4",
            "--prec", "10", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 1


class TestSlopes:
    def test_weight_range_table(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys, "slopes", "--p", "3", "--nminus", "2",
            "--weights", "4..6", "--prec", "10", "--cache-dir", cache_dir)
        assert code == 0
        assert "4" in out and "6" in out

    def test_weight_list_json(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys, "slopes", "--p", "3", "--nminus", "2",
            "--weights", "4,6", "--prec", "10", "--format", "json",
            "--cache-dir", cache_dir)
        assert code == 0
        rows = json.loads(out)
        assert [r["weight"] for r in rows] == [4, 6]


def test_startup_imports_no_sympy():
    """The command line runs without sympy: importing it in a fresh
    interpreter loads no sympy module."""
    code = ("import sys, linvariant.cli, linvariant.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.strip() == "[]"


def _fuzz_cases():
    """(p, Nminus, Nplus, weight) cases with p <= 7 and Nminus <= 30: one of
    each invalid kind, two small valid rows, then six seeded random ones."""
    rng = random.Random(2017)
    cases = [(4, 3, 1, 4),    # composite p
             (3, 15, 1, 4),   # p | Nminus
             (5, 6, 1, 4),    # even number of primes in Nminus
             (2, 3, 1, 5),    # odd weight
             (3, 2, 1, 4),
             (2, 3, 1, 6)]
    for _ in range(6):
        cases.append((rng.choice([2, 3, 5, 7]), rng.randint(2, 30),
                      rng.choice([1, 1, 1, 2, 5]),
                      rng.choice([2, 4, 4, 6, 8])))
    return cases


@pytest.mark.parametrize("p, nminus, nplus, weight", _fuzz_cases())
def test_fuzz_exit_codes(capsys, tmp_path, p, nminus, nplus, weight):
    """Any input gives a documented exit code (ok, undecidable, invalid,
    budget), never an uncaught exception."""
    code = main(["linv", "--p", str(p), "--nminus", str(nminus),
                 "--nplus", str(nplus), "--weight", str(weight),
                 "--prec", "6", "--budget-secs", "2",
                 "--cache-dir", str(tmp_path / "rows")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert code == 0 or err.startswith("error")
