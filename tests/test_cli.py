"""CLI surface: rows, formats, exit statuses, determinism."""

import json
import os
import signal
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from decimal import Decimal
from pathlib import Path

import pytest

import padiaphony.cli
from padiaphony import BoxTooLarge, is_prime, validate_bases
from padiaphony.cli import _emit, main
from padiaphony.diaphony import ENUMERATION_CAP

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_halton_rows(capsys):
    code, out, _ = run(capsys, "halton", "--bases", "2,3", "--count", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,x1,x1_dec,x2,x2_dec"
    assert lines[1] == "0,0/1,0,0/1,0"
    assert lines[2].startswith("1,1/2,0.5,1/3,0.33333333333333331")


def test_halton_start_offset(capsys):
    code, out, _ = run(capsys, "halton", "--bases", "2", "--count", "1", "--start", "5")
    assert code == 0
    assert out.splitlines()[1] == "5,5/8,0.625"


def test_halton_duplicate_base_is_usage_error(capsys):
    code, _, err = run(capsys, "halton", "--bases", "2,2", "--count", "1")
    assert code == 2
    assert "--bases" in err


def test_halton_non_prime_base_is_usage_error(capsys):
    code, _, err = run(capsys, "halton", "--bases", "6", "--count", "1")
    assert code == 2
    assert "--bases" in err


def test_halton_accepts_a_large_prime_base_at_once(capsys):
    code, out, _ = run(capsys, "halton", "--bases", str(2**61 - 1), "--count", "2")
    assert code == 0
    assert out.splitlines()[2].startswith(f"1,1/{2**61 - 1},")


def test_base_of_2_pow_63_or_more_is_a_usage_error(capsys):
    code, out, err = run(capsys, "halton", "--bases", f"2,{2**64 - 59}", "--count", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: --bases: base 18446744073709551557 exceeds")


def test_dim_shorthand(capsys):
    code, out, _ = run(capsys, "halton", "--dim", "3", "--count", "1")
    assert code == 0
    assert out.splitlines()[0] == "n,x1,x1_dec,x2,x2_dec,x3,x3_dec"


def test_bases_and_dim_conflict(capsys):
    code, _, err = run(capsys, "halton", "--bases", "2", "--dim", "2", "--count", "1")
    assert code == 2
    assert "--bases" in err and "--dim" in err


def test_diaphony_kernel(capsys):
    code, out, _ = run(capsys, "diaphony", "--bases", "2", "--count", "2",
                       "--method", "kernel")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,F,F2,e"
    fields = lines[1].split(",")
    assert fields[0] == "2"
    assert float(fields[1]) == 0.5
    assert float(fields[2]) == 0.25


def test_diaphony_single_point_is_one(capsys):
    code, out, _ = run(capsys, "diaphony", "--bases", "2", "--count", "1",
                       "--method", "kernel")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == 1.0


def test_diaphony_spectral(capsys):
    code, out, _ = run(capsys, "diaphony", "--bases", "2", "--count", "2",
                       "--method", "spectral", "--g", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,F,F2,e,lower,upper"
    fields = lines[1].split(",")
    assert float(fields[4]) == pytest.approx(0.1875, abs=1e-12)
    assert float(fields[5]) == pytest.approx(0.3125, abs=1e-12)


def test_diaphony_spectral_requires_box(capsys):
    code, _, err = run(capsys, "diaphony", "--bases", "2", "--count", "2",
                       "--method", "spectral")
    assert code == 2
    assert "--g" in err


def test_bound_values(capsys):
    code, out, _ = run(capsys, "bound", "--bases", "2", "--count", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,c,d,bound_F2,bound_F"
    fields = lines[1].split(",")
    assert float(fields[2]) == 4.0
    assert float(fields[3]) == 4.0

    code, out, _ = run(capsys, "bound", "--bases", "2,3", "--count", "1")
    assert float(out.splitlines()[1].split(",")[2]) == 12.0


def test_sweep_header_and_first_row(capsys):
    code, out, _ = run(capsys, "sweep", "--bases", "2", "--from", "1", "--to", "4",
                       "--step", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,F,F2,bound_F2,ratio"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 1.0
    assert float(first[4]) == 0.25
    for line in lines[1:]:
        assert float(line.split(",")[4]) <= 1.0


def test_sweep_pow2_steps(capsys):
    code, out, _ = run(capsys, "sweep", "--bases", "2", "--from", "2", "--to", "16",
                       "--step", "pow2")
    assert code == 0
    ns = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert ns == ["2", "4", "8", "16"]


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--bases", "2", "--from", "4", "--to", "2",
                       "--step", "1")
    assert code == 2
    assert "--to" in err
    code, _, err = run(capsys, "sweep", "--bases", "2", "--from", "0", "--to", "2",
                       "--step", "1")
    assert code == 2
    code, _, err = run(capsys, "sweep", "--bases", "2", "--from", "1", "--to", "2",
                       "--step", "fib")
    assert code == 2
    assert "--step" in err


def test_verify_lemma_passes(capsys):
    code, out, _ = run(capsys, "verify-lemma", "--bases", "2", "--count", "2",
                       "--g", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,worst_ratio,worst_index,violations"
    assert lines[1].split(",")[3] == "0"


def test_verify_lemma_two_dimensional(capsys):
    code, out, _ = run(capsys, "verify-lemma", "--bases", "2,3", "--count", "32",
                       "--g", "3,2")
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "0"


def test_verify_lemma_missing_box(capsys):
    code, _, _ = run(capsys, "verify-lemma", "--bases", "2", "--count", "2")
    assert code == 2


def test_verify_lemma_box_cap(capsys):
    code, _, err = run(capsys, "verify-lemma", "--bases", "2", "--count", "2",
                       "--g", "23")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("diaphony", "--bases", "2", "--count", "1", "--method", "spectral",
         "--g", "1000000"),
        ("verify-lemma", "--bases", "2,3", "--count", "1", "--g", "1000000,1"),
        # a count at the end of the index space does not get past the box cap
        ("diaphony", "--bases", "2,3", "--count", str(2**62), "--method", "spectral",
         "--g", "1000000,1"),
    ],
)
def test_huge_box_is_a_resource_cap_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "cap" in err


@pytest.mark.parametrize("bases, g", [("2", "1"), ("2", "21"), ("2,3", "12,6"), ("2,3,5", "6,4,3")])
@pytest.mark.parametrize("count", [2**62, 2**63 - 1])
def test_spectral_segment_at_the_end_of_the_index_space_runs(capsys, bases, g, count):
    # the segment is summed in closed form, so no point is built at any count
    code, out, err = run(capsys, "diaphony", "--bases", bases, "--count", str(count),
                         "--method", "spectral", "--g", g)
    assert (code, err) == (0, "")
    n, _, f2, _, lower, upper = out.splitlines()[1].split(",")
    assert int(n) == count and float(lower) <= float(f2) <= float(upper)
    code, out, _ = run(capsys, "diaphony", "--bases", bases, "--count", str(count))
    assert code == 0
    assert float(lower) <= float(out.splitlines()[1].split(",")[2]) <= float(upper)


@pytest.mark.parametrize("bases, g", [("2", "1"), ("2,3", "8,5")])
def test_verify_lemma_checks_a_count_at_the_end_of_the_index_space(capsys, bases, g):
    # the check counts the cells of one period of indices, at most prod p**g
    code, out, err = run(capsys, "verify-lemma", "--bases", bases, "--count", str(2**62),
                         "--g", g)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].split(",")[3] == "0"


# the 17 largest primes below 2**61: sigma = prod (p + 1) is about 2**1037
LARGE_PRIMES = (
    "2305843009213693951,2305843009213693921,2305843009213693907,2305843009213693723,"
    "2305843009213693693,2305843009213693669,2305843009213693613,2305843009213693561,"
    "2305843009213693549,2305843009213693487,2305843009213693421,2305843009213693373,"
    "2305843009213693277,2305843009213693193,2305843009213693153,2305843009213693133,"
    "2305843009213693123"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--count", "2"),
        ("bound", "--count", str(2**63)),
        ("diaphony", "--count", "2"),
        ("sweep", "--from", "1", "--to", "3"),
    ],
)
def test_bases_past_the_float_range_of_sigma_exit_0(argv):
    proc = _run_python("-m", "padiaphony", *argv, "--bases", LARGE_PRIMES)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "inf" not in proc.stdout


def _largest_primes(count: int) -> str:
    """The ``count`` largest primes below 2**61, as a --bases list."""
    primes, p = [], 2**61 - 1
    while len(primes) < count:
        if is_prime(p):
            primes.append(p)
        p -= 2
    return ",".join(map(str, primes))


def test_bound_prints_a_c_past_the_float_range(capsys):
    # the 34 largest primes below 2**61: c is about 1e579, which no float
    # holds, but the bound at N = 1 is d = 68 max p
    bases = _largest_primes(34)
    code, out, err = run(capsys, "bound", "--count", "1", "--bases", bases)
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert header == "N,c,d,bound_F2,bound_F"
    n, c, d, bound, _ = row.split(",")
    assert Decimal(c).adjusted() == 579
    assert float(d) == float(bound) == float(68 * (2**61 - 1))
    code, out, err = run(capsys, "bound", "--count", "1", "--bases", bases, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"][0]["c"] == c
    code, out, err = run(capsys, "sweep", "--from", "1", "--to", "1", "--bases", bases)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[3] == d


def test_spectral_box_is_checked_before_points_are_built(capsys, monkeypatch):
    def no_sums(*args):
        raise AssertionError("the segment summed before the box check")

    monkeypatch.setattr("padiaphony.diaphony._segment_boxed_sums", no_sums)
    code, out, err = run(capsys, "diaphony", "--bases", "2", "--count", "1000000",
                         "--method", "spectral", "--g", "23")
    assert code == 3
    assert out == ""
    assert err == f"error: {BoxTooLarge((23,), ENUMERATION_CAP)}\n"


def test_bound_beyond_the_index_space_is_a_usage_error(capsys):
    code, out, _ = run(capsys, "bound", "--bases", "2", "--count", str(2**63))
    assert code == 0
    assert float(out.splitlines()[1].split(",")[3]) > 0
    code, out, err = run(capsys, "bound", "--bases", "2", "--count", str(10**200))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "2**63" in err


def test_json_output_mirrors_fields(capsys):
    code, out, _ = run(capsys, "diaphony", "--bases", "2,3", "--count", "4",
                       "--method", "kernel", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["bases"] == [2, 3]
    assert payload["config"]["command"] == "diaphony"
    row = payload["rows"][0]
    assert set(row) == {"N", "F", "F2", "e"}
    assert row["N"] == 4


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("halton", "--bases", "2,3", "--count", "3", "--start", "5"),
         {"count": 3, "start": 5}),
        (("diaphony", "--bases", "2,3", "--count", "4"),
         {"count": 4, "method": "kernel", "box": None, "start": 0}),
        (("diaphony", "--bases", "2,3", "--count", "4", "--method", "spectral", "--g", "2,1",
          "--start", "9"), {"count": 4, "method": "spectral", "box": [2, 1], "start": 9}),
        (("bound", "--bases", "2,3", "--count", "1024"), {"count": 1024}),
        (("sweep", "--bases", "2,3", "--from", "3", "--to", "40", "--step", "7", "--start", "11"),
         {"from": 3, "to": 40, "step": "7", "start": 11}),
        (("sweep", "--bases", "2,3", "--from", "2", "--to", "16", "--step", "pow2"),
         {"from": 2, "to": 16, "step": "pow2", "start": 0}),
        (("verify-lemma", "--bases", "2,3", "--count", "128", "--g", "4,3"),
         {"count": 128, "box": [4, 3]}),
    ],
)
def test_json_config_echoes_only_the_command_s_own_flags(capsys, argv, flags):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert list(config) == ["command", "bases", *flags, "format", "output"]
    assert config == {"command": argv[0], "bases": [2, 3], **flags,
                      "format": "json", "output": None}


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "halton", "--bases", "2", "--count", "3",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert content.splitlines()[0] == "n,x1,x1_dec"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "bound", "--dim", "2", "--count", "4",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out:")
    assert not target.exists()


def test_identical_invocations_are_byte_identical(capsys):
    args = ("sweep", "--bases", "2,3", "--from", "1", "--to", "32", "--step", "pow2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_count_validation(capsys):
    code, _, err = run(capsys, "diaphony", "--bases", "2", "--count", "0")
    assert code == 2
    assert "--count" in err


def test_segments_ending_at_max_index(capsys):
    last = "9223372036854775807"  # MAX_INDEX
    code, out, _ = run(capsys, "diaphony", "--bases", "2", "--count", "2",
                       "--start", "9223372036854775806")
    assert code == 0
    assert out == "N,F,F2,e\n2,0.5,0.25,0.70710678118654757\n"
    code, out, _ = run(capsys, "sweep", "--bases", "2,3", "--from", "1", "--to", "4",
                       "--start", "9223372036854775804")
    assert code == 0
    assert out == (
        "N,F,F2,bound_F2,ratio\n"
        "1,1,1,12,0.083333333333333329\n"
        "2,0.67419986246324204,0.45454545454545453,10.832234242467836,0.041962299223867086\n"
        "3,0.5222329678670935,0.27272727272727271,10.077957174158596,0.027061761427860261\n"
        "4,0.42640143271122088,0.18181818181818182,8.5822342424678357,0.021185413574297839\n"
    )
    for argv in (
        ("diaphony", "--bases", "2", "--count", "2", "--start", last),
        ("sweep", "--bases", "2,3", "--from", "1", "--to", "4",
         "--start", "9223372036854775805"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceed the supported range" in err


MAX = str(2**63 - 1)


@pytest.mark.parametrize(
    "argv, status, rows",
    [
        # the whole 64-bit index space, and sizes no point array could hold
        (("sweep", "--bases", "2", "--from", "1", "--to", str(2**63), "--step", "pow2"), 0, 64),
        (("sweep", "--bases", "2", "--from", "1", "--to", str(10**11),
          "--step", str(10**9)), 0, 100),
        (("sweep", "--bases", "2,3", "--from", "1", "--to", str(2**62), "--step", "pow2"), 0, 63),
        (("diaphony", "--dim", "4", "--count", str(2**62)), 0, 1),
        (("diaphony", "--bases", "2,3", "--count", str(2**63)), 0, 1),
        (("diaphony", "--bases", "2", "--count", "1", "--start", MAX), 0, 1),
        # past the index space
        (("sweep", "--bases", "2", "--from", "3", "--to", str(2**64), "--step", "pow2"), 2, 0),
        (("sweep", "--bases", "2", "--from", "1", "--to", str(10**30), "--step", "pow2"), 2, 0),
        (("sweep", "--bases", "2", "--from", "1", "--to", "4", "--start", MAX), 2, 0),
        (("diaphony", "--bases", "2", "--count", str(2**63 + 1)), 2, 0),
        (("diaphony", "--bases", "2", "--count", str(2**63 + 1), "--method", "spectral",
          "--g", "1"), 2, 0),
        (("halton", "--bases", "2", "--count", "1", "--start", str(2**63)), 2, 0),
        (("bound", "--bases", "2", "--count", str(2**63 + 1)), 2, 0),
        (("verify-lemma", "--bases", "2", "--count", str(2**63 + 1), "--g", "1"), 2, 0),
        # malformed flags
        (("diaphony", "--bases", "2,3", "--count", "4", "--method", "kernel",
          "--g", "3,2"), 2, 0),
        (("diaphony", "--bases", "2,3", "--count", "4", "--g", "3,2"), 2, 0),
        (("diaphony", "--bases", "2", "--count", "4", "--method", "spectral", "--g", "0"), 2, 0),
        (("diaphony", "--bases", "2", "--count", "4", "--method", "spectral", "--g", "-1"), 2, 0),
        (("diaphony", "--bases", "2", "--count", "4", "--method", "spectral", "--g", "3,2"), 2, 0),
        (("diaphony", "--bases", "2", "--count", "4", "--method", "spectral", "--g", "x"), 2, 0),
        (("diaphony", "--bases", "2", "--count", "4", "--method", "fft"), 2, 0),
        (("diaphony", "--bases", "", "--count", "4"), 2, 0),
        (("diaphony", "--bases", "2,x", "--count", "4"), 2, 0),
        (("diaphony", "--bases", "1", "--count", "4"), 2, 0),
        (("diaphony", "--dim", "0", "--count", "4"), 2, 0),
        (("diaphony", "--dim", "17", "--count", "4"), 2, 0),
        (("diaphony", "--bases", "2", "--count", "-3"), 2, 0),
        (("diaphony", "--bases", "2", "--count", "4", "--start", "-1"), 2, 0),
        (("diaphony", "--bases", "2", "--count", "many"), 2, 0),
        (("sweep", "--bases", "2", "--from", "1", "--to", "4", "--step", "0"), 2, 0),
        (("sweep", "--bases", "2", "--from", "1", "--to", "4", "--step", "-2"), 2, 0),
        (("sweep", "--bases", "2", "--from", "-1", "--to", "4"), 2, 0),
        (("sweep", "--bases", "2,2", "--from", "1", "--to", "4"), 2, 0),
        (("sweep", "--bases", "2", "--to", "4"), 2, 0),
        (("halton", "--bases", "2", "--count", "0"), 2, 0),
        (("bound", "--bases", "2", "--count", "0"), 2, 0),
        (("verify-lemma", "--bases", "2", "--count", "0", "--g", "1"), 2, 0),
        (("verify-lemma", "--bases", "2", "--count", "4", "--g", "1,1"), 2, 0),
        (("frobnicate",), 2, 0),
        ((), 2, 0),
        (("halton", "--count", "1"), 2, 0),
        # a stepped range past the index space, refused before any size list is built
        (("sweep", "--bases", "2", "--from", "1", "--to", str(10**30), "--step", "3"), 2, 0),
    ],
)
def test_no_invocation_exits_1_without_a_violation(capsys, argv, status, rows):
    code, out, err = run(capsys, *argv)
    assert code == status, err
    assert "Traceback" not in err
    if status:
        assert out == ""
        assert "error:" in err
    else:
        assert len(out.splitlines()) == rows + 1


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_python_env(),
                          capture_output=True, text=True, timeout=120)


def test_module_entry_exits_with_the_status_of_main():
    # python -m padiaphony runs cli.entry, as the console script does
    proc = _run_python("-m", "padiaphony", "bound", "--dim", "2", "--count", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("N,c,d,bound_F2,bound_F\n4,")
    proc = _run_python("-m", "padiaphony", "bound", "--dim", "2", "--count", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --count must be at least 1\n"


def test_kernel_cli_path_does_not_import_numpy():
    # every command, in a fresh interpreter, because this one already holds
    # numpy; verify-lemma at the benchmark's box, at the end of the index
    # space and at r = 2, its longest scan relative to the box
    proc = _run_python(
        "-c",
        "import sys\n"
        "from padiaphony.cli import main\n"
        "for argv in (['bound', '--dim', '4', '--count', '2048'],\n"
        "             ['diaphony', '--dim', '4', '--count', '2048', '--start', '1234567'],\n"
        "             ['sweep', '--bases', '2,3', '--from', '1', '--to', '4096', '--step', 'pow2'],\n"
        "             ['halton', '--bases', '2,3', '--count', '8'],\n"
        "             ['diaphony', '--bases', '2,3', '--count', '8192', '--method', 'spectral',\n"
        "              '--g', '10,6', '--start', '1234567'],\n"
        "             ['diaphony', '--dim', '3', '--count', str(2**63 - 1), '--method', 'spectral',\n"
        "              '--g', '6,4,3'],\n"
        "             ['verify-lemma', '--bases', '2,3', '--count', '256', '--g', '8,5'],\n"
        "             ['verify-lemma', '--bases', '2,3', '--count', str(2**62), '--g', '12,6'],\n"
        "             ['verify-lemma', '--bases', '2,3', '--count', '2', '--g', '4,3']):\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    assert proc.returncode == 0, proc.stderr
    proc = _run_python(
        "-c",
        "from padiaphony.cli import main\n"
        "raise SystemExit(main(['diaphony', '--bases', '2,3', '--count', '64',\n"
        "                       '--method', 'spectral', '--g', '4,3']))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("N,F,F2,e,lower,upper\n")


def test_csv_runs_load_neither_logging_nor_json():
    # a fresh interpreter; modules the interpreter loaded at startup are
    # not counted against the package
    proc = _run_python(
        "-c",
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import padiaphony\n"
        "from padiaphony.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['bound', '--dim', '4', '--count', '2048'],\n"
        "                 ['diaphony', '--dim', '4', '--count', '2048', '--start', '1234567'],\n"
        "                 ['sweep', '--bases', '2,3', '--from', '1', '--to', '4096', '--step', 'pow2'],\n"
        "                 ['halton', '--bases', '2,3', '--count', '8'],\n"
        "                 ['diaphony', '--bases', '2,3', '--count', '64',\n"
        "                  '--method', 'spectral', '--g', '4,3'],\n"
        "                 ['verify-lemma', '--bases', '2,3', '--count', '64', '--g', '4,3']):\n"
        "        assert main(argv) == 0, argv\n"
        "loaded = {'logging', 'json'} & (set(sys.modules) - before)\n"
        "assert not loaded, loaded\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert main(['halton', '--bases', '2,3', '--count', '2', '--format', 'json']) == 0\n"
        "import json\n"
        "assert json.loads(out.getvalue())['rows'][1]['x2'] == '1/3'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_no_run_loads_dataclasses_and_numpy_free_runs_load_no_inspect():
    # a fresh interpreter, counting only modules loaded after startup: the
    # records are slotted classes, so nothing loads dataclasses, and no
    # command loads numpy, which would load inspect
    proc = _run_python(
        "-c",
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "def run(*argvs):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        for argv in argvs:\n"
        "            assert main(argv) == 0, argv\n"
        "    return {'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
        "import padiaphony\n"
        "from padiaphony.cli import main\n"
        "loaded = run(['bound', '--dim', '4', '--count', '2048'],\n"
        "             ['diaphony', '--dim', '4', '--count', '2048', '--start', '1234567'],\n"
        "             ['sweep', '--bases', '2,3', '--from', '1', '--to', '4096', '--step', 'pow2'],\n"
        "             ['halton', '--bases', '2,3', '--count', '8'],\n"
        "             ['diaphony', '--bases', '2,3', '--count', '64',\n"
        "              '--method', 'spectral', '--g', '4,3'],\n"
        "             ['verify-lemma', '--bases', '2,3', '--count', '64', '--g', '4,3'])\n"
        "assert not loaded, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_import_padiaphony_loads_no_submodule():
    # a fresh interpreter: the package loads its modules on first use
    proc = _run_python(
        "-c",
        "import sys\n"
        "import padiaphony\n"
        "loaded = [m for m in sys.modules if m.startswith('padiaphony.')]\n"
        "assert not loaded, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--dim", "4", "--count", "2048"],
        ["sweep", "--bases", "2,3", "--from", "1", "--to", "4096", "--step", "pow2"],
        ["diaphony", "--dim", "4", "--count", "2048", "--start", "1234567", "--method", "kernel"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_form_commands_load_only_the_core(argv):
    # a fresh interpreter running python -m padiaphony, as the console
    # script and the benchmark do; modules loaded at startup are not counted
    proc = _run_python(
        "-c",
        "import contextlib, io, runpy, sys\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['padiaphony', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('padiaphony', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
        "loaded = set(sys.modules) - before\n"
        "assert 'padiaphony.core' in loaded, sorted(loaded)\n"
        "heavy = {'padiaphony.padic', 'padiaphony.diaphony', 'padiaphony.kernel',\n"
        "         'fractions', 'decimal', 'numpy'} & loaded\n"
        "assert not heavy, heavy\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_commands_call_the_routes_bound_at_the_cli_globals(capsys, monkeypatch):
    # perfbench/tracing.py replaces these names at padiaphony.cli, before or
    # after a command has bound them there
    calls = []

    def recorder(name):
        real = getattr(padiaphony.cli, name)

        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return record

    names = ("verify_weyl_bound", "diaphony_spectral", "halton_diaphony_bound")
    for name in names:
        if name in padiaphony.cli._ROUTES:  # as before the first command binds it
            monkeypatch.delitem(vars(padiaphony.cli), name, raising=False)
        monkeypatch.setattr(padiaphony.cli, name, recorder(name))
    for argv in (["verify-lemma", "--bases", "2,3", "--count", "64", "--g", "4,3"],
                 ["diaphony", "--bases", "2,3", "--count", "64", "--method", "spectral",
                  "--g", "4,3"],
                 ["bound", "--dim", "2", "--count", "4"]):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
    assert calls == list(names)


def test_streamed_output_equals_the_joined_text(capsys, monkeypatch):
    seen = []

    def spy(args, rows, **flags):
        # sweep rows arrive as a generator: keep a copy, emit them streamed
        rows = list(rows)
        seen.append((args, rows, flags))
        _emit(args, iter(rows), **flags)

    monkeypatch.setattr(padiaphony.cli, "_emit", spy)
    for fmt in ("csv", "json"):
        # past one 4096-size chunk, so the rows cross a chunk seam
        code, out, _ = run(capsys, "sweep", "--bases", "2", "--from", "1", "--to", "5000",
                           "--format", fmt)
        assert code == 0
        args, rows, flags = seen.pop()
        assert len(rows) == 5000
        if fmt == "csv":
            header = ["N", "F", "F2", "bound_F2", "ratio"]
            lines = [",".join(header)]
            lines += [",".join(padiaphony.cli._fmt(row[h]) for h in header) for row in rows]
            text = "\n".join(lines) + "\n"
        else:
            config = {"command": "sweep", "bases": [2], **flags, "format": "json",
                      "output": None}
            text = json.dumps({"config": config, "rows": rows}, indent=2) + "\n"
        assert out == text


class _CountingSink:
    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_does_not_hold_the_whole_text(fmt, monkeypatch):
    args = Namespace(command="sweep", bases=validate_bases([2]), format=fmt, out=None)
    # a generator, as the commands pass their rows
    rows = ({"N": n, "F": 1 / n, "F2": 1 / n**2, "bound_F2": 3 / n, "ratio": n / 3}
            for n in range(1, 2**14 + 1))
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        _emit(args, rows, step="1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 2**14 * 40
    assert peak < sink.chars / 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_halton_rows_are_streamed(fmt, monkeypatch):
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["halton", "--bases", "2", "--count", str(2**14), "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 2**14 * 20
    assert peak < sink.chars / 2


def test_console_script_ends_quietly_when_the_reader_goes_away():
    for argv, first_lines in [
        (("sweep", "--bases", "2", "--from", "1", "--to", "200000"),
         ("N,F,F2,bound_F2,ratio\n", "1,")),
        # 2**63 rows, the whole index space, streamed as JSON with no row cap
        (("sweep", "--bases", "2,3", "--from", "1", "--to", str(2**63), "--format", "json"),
         ("{\n", '  "config": {\n')),
    ]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "padiaphony", *argv], cwd=ROOT, env=_python_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline() == first_lines[0]
            assert proc.stdout.readline().startswith(first_lines[1])
            proc.stdout.close()
            err = proc.stderr.read()
            status = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == "", argv
        assert status == -signal.SIGPIPE, argv  # the shell reports 141
