import hashlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from belldistill import DensityOperator, er_search, rho_n, to_dense
from belldistill.cli import explore_er, main
from belldistill.states import dm_to_json

from conftest import dump_matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args)
    if result.exit_code not in (0, 1, 2):  # unexpected crash
        raise result.exception
    return result


def payload_of(result):
    return json.loads(result.stdout)


def assert_usage_error(result):
    # exit 2 with a message, never a traceback or a payload
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "Error:" in result.stderr and "Traceback" not in result.stderr


# --- verify ---------------------------------------------------------------


@pytest.mark.parametrize("m, expected", [(1, 0.0), (2, 2.0)])
def test_verify_eq5_structured(runner, m, expected):
    result = invoke(runner, ["verify", "eq5", "--m", str(m)])
    assert result.exit_code == 0
    data = payload_of(result)
    assert data["pass"] is True
    assert data["checks"][0]["computed"] == pytest.approx(expected, abs=1e-12)
    assert data["checks"][0]["formula"] == "2m-2"


def test_verify_eq5_dense(runner):
    result = invoke(runner, ["verify", "eq5", "--m", "2", "--method", "dense"])
    assert result.exit_code == 0
    data = payload_of(result)
    assert data["checks"][0]["tolerance"] == 1e-8
    assert abs(data["checks"][0]["computed"] - 2.0) <= 1e-8


def test_verify_eq10(runner):
    result = invoke(runner, ["verify", "eq10", "--m", "1"])
    assert result.exit_code == 0
    data = payload_of(result)
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["divergence_bits"]["computed"] == pytest.approx(2.0)
    assert by_name["halved_bits"]["computed"] == pytest.approx(1.0)
    assert data["support_contained"] is False
    assert data["raw_divergence_bits"] == "infinity"


def test_verify_er_pair(runner):
    result = invoke(runner, ["verify", "er-pair", "--n", "4"])
    assert result.exit_code == 0
    data = payload_of(result)
    assert data["checks"][0]["computed"] == pytest.approx(4.0, abs=1e-12)
    assert data["checks"][0]["formula"] == "2n-4"


def test_verify_tolerance_override_can_fail(runner):
    # dense value differs from 0 by ~1e-15; an absurdly tight tolerance
    # must flip the exit code to 1, not crash
    result = invoke(runner, ["verify", "er-pair", "--n", "2", "--method", "dense",
                             "--tol", "1e-18"])
    assert result.exit_code == 1
    assert payload_of(result)["pass"] is False


def test_verify_eq5_dense_twelve_qubits(runner):
    # 12 qubits: every dense matrix here splits into blocks of at most 32
    result = invoke(runner, ["verify", "eq5", "--m", "3", "--method", "dense"])
    assert result.exit_code == 0
    assert abs(payload_of(result)["checks"][0]["computed"] - 4.0) <= 1e-8


def test_unwritable_output_is_usage_error(runner, tmp_path):
    missing = str(tmp_path / "missing" / "x.json")
    assert_usage_error(invoke(runner, ["verify", "eq5", "--m", "1", "--out", missing]))
    assert_usage_error(invoke(runner, ["separability", "--n", "1", "--dump", missing]))


def test_verify_usage_errors(runner):
    assert invoke(runner, ["verify", "eq5"]).exit_code == 2
    assert invoke(runner, ["verify", "eq5", "--m", "0"]).exit_code == 2
    # 14 or more qubits: the library's dense cap applies
    for args in (["eq10", "--m", "2"], ["er-pair", "--n", "4"], ["eq5", "--m", "4"]):
        result = invoke(runner, ["verify", *args, "--method", "dense"])
        assert_usage_error(result)
        assert "capped at 12 qubits" in result.stderr
    for tol in ("-1", "nan", "inf"):
        assert_usage_error(invoke(runner, ["verify", "eq5", "--m", "3", "--tol", tol]))


@pytest.mark.parametrize("command, bound, option, size", [
    ("eq5", "er_bound_even", "--m", 2),
    ("eq10", "er_bound_odd_doubled", "--m", 1),
    ("er-pair", "er_bound_pair", "--n", 3),
])
def test_verify_calls_bound_through_module_name(runner, monkeypatch, command, bound,
                                                option, size):
    # a tracer times the bounds by rebinding belldistill.cli's global names, so
    # a command must look its bound up there at call time
    import belldistill.cli as cli

    original, calls = getattr(cli, bound), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, bound, spy)
    result = invoke(runner, ["verify", command, option, str(size)])
    assert result.exit_code == 0
    assert calls == [((size,), {"method": "structured"})]


# --- distill / discriminate --------------------------------------------------


def test_distill_json_report(runner):
    result = invoke(runner, ["distill", "--n", "4", "--shots", "200", "--seed", "7"])
    assert result.exit_code == 0
    data = payload_of(result)
    assert data["ebits_per_shot"] == 2
    assert data["success_rate"] == 1.0
    assert data["mean_fidelity"] >= 1 - 1e-12
    assert data["seed"] == 7
    assert isinstance(data["transcript_sample"], list)
    assert len(data["transcript_sample"]) == 4


def test_distill_csv(runner, tmp_path):
    out = tmp_path / "shots.csv"
    result = invoke(runner, ["distill", "--n", "3", "--shots", "5",
                             "--format", "csv", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "shot,hidden,guess,parity_z,parity_x,correct,ebits,fidelity"
    assert len(lines) == 6


def test_distill_trivial_cases(runner):
    r1 = payload_of(invoke(runner, ["distill", "--n", "1"]))
    assert r1["ebits_per_shot"] == 0
    assert r1["distance_to_maximally_mixed"] <= 1e-12

    r2 = payload_of(invoke(runner, ["distill", "--n", "2"]))
    assert r2["ebits_per_shot"] == 0
    assert r2["is_ppt"] is True
    assert r2["smolin_residual"] <= 1e-10


def test_distill_byte_identical_reruns(runner):
    args = ["distill", "--n", "4", "--shots", "100", "--seed", "7"]
    a = invoke(runner, args).stdout
    b = invoke(runner, args).stdout
    assert a == b


def test_distill_usage_error(runner):
    assert invoke(runner, ["distill", "--n", "0"]).exit_code == 2
    assert invoke(runner, ["distill", "--n", "3", "--shots", "0"]).exit_code == 2
    for n in ("2", "3"):  # the zero-yield path checks the seed too
        result = invoke(runner, ["distill", "--n", n, "--seed", "-1"])
        assert_usage_error(result)
        assert "'--seed'" in result.stderr
    data = payload_of(invoke(runner, ["distill", "--n", "7"]))  # no longer capped
    assert (data["pass"], data["ebits_per_shot"], data["success_rate"]) == (True, 5, 1.0)


def test_discriminate_usage_error(runner):
    assert invoke(runner, ["discriminate", "--n", "1"]).exit_code == 2
    result = invoke(runner, ["discriminate", "--n", "7"])  # no longer capped
    assert result.exit_code == 0
    assert payload_of(result)["success_rate"] == 1.0


@pytest.mark.parametrize("args", [["distill", "--n", "3"], ["discriminate"]],
                         ids=["distill", "discriminate"])
def test_unallocatable_shot_count_is_usage_error(runner, args):
    # 10^16 draws need 71 PiB, past any 48-bit address space, so numpy
    # refuses before it allocates anything
    result = invoke(runner, [*args, "--shots", str(10 ** 16)])
    assert_usage_error(result)
    assert "Unable to allocate" in result.stderr


@pytest.mark.parametrize("command", ["distill", "discriminate"])
def test_protocol_has_no_size_cap(runner, command):
    # the protocol runs in the Bell frame, with no 2n-qubit ket to cap n
    result = invoke(runner, [command, "--n", "50", "--shots", "1000", "--seed", "4"])
    assert result.exit_code == 0
    data = payload_of(result)
    assert (data["pass"], data["n"], data["success_rate"]) == (True, 50, 1.0)
    if command == "distill":
        assert data["ebits_per_shot"] == 48
        assert data["mean_fidelity"] == data["min_fidelity"] == 1.0


# sha256 of stdout as printed by earlier code: the stepwise per-shot ket
# simulation (discriminate) and one emit path per command (verify,
# sigma-equiv, discriminate --n 4).  The two permutations digests were
# recorded once the table was built from its Klein x S3 factors.  The two
# distill digests were recorded once a seeded run drew every shot's branch
# from one generator, which changed the sampled transcript and CSV rows;
# discriminate prints only the rate, so its digests held.
RECORDED_STDOUT = {
    "distill --n 3 --shots 200 --seed 11":
        "63a39202cd120b32d590c33be05354ff9393498f424885b6c87fd41d8adabf03",
    "distill --n 6 --shots 200 --seed 11 --format csv":
        "32fafe0e5f77522415381666bfc8226b37ee91cf203d84367c5afa212b0b25ae",
    "discriminate --n 2 --shots 200 --seed 11":
        "c5cd9613f3663ba7b305eee0849b5163e6cc67fc1a5bd585e9cd17484bb0157b",
    "permutations":
        "6d6106448712c98cdf93bb9261c863a90226e604493de8736a09a998caa510a8",
    "permutations --format json":
        "eec256e2cdcbc7a450ef9610958d7ba9d0978776081d2e07406631e0fc111f00",
    "verify eq5 --m 1000":
        "53764b57cd15d897f44b822e50162f98ef236142125bfd4101b6c7f12f8d21c1",
    "verify eq10 --m 3":
        "8d88678efb83a90c7c179151c54a5a02a785ace463471686504b4946dc2df5d2",
    "verify er-pair --n 5":
        "65b763c0565ccfd92ace65656727c39b58f75eb0fabdac2d38a527dd5f20046b",
    "sigma-equiv --perms 2134,3412,1234":
        "62b02c83b8c5128c9d62a4e9361b188921230b54392c3b37a971d3ccdbbf6143",
    "discriminate --n 4 --shots 300 --seed 3":
        "698e41fbb9990eece3a50f0a67bbc91943cbb695686ebd5e36c6bb3a37b49030",
}

# Dense payloads print eigensolver rounding digits, which can move with the
# BLAS thread count, so these run in a child process on one BLAS thread.  The
# two verify digests were recorded once eigensolves ran block by block; the
# rest were recorded earlier and did not change.
RECORDED_DENSE_STDOUT = {
    "verify eq5 --m 2 --method dense":
        "3b69c7c28cea261c1c2a9676dccd09d3c30a14a08114914ee19cb0f72f35428b",
    "verify er-pair --n 2 --method dense":
        "3d7f52052147e188c98bee1542803632183b388ef8943ef88c40d63aba9eccef",
    "sigma-equiv --perms 2134,3412,1234 --method both":
        "bda8c952772c1a6c5ad8caea67b9cd7b2afa5237c05ca98bd9bb48748a4e16d7",
    "separability --n 1":
        "433019bc76083031b38ed29587898890cc3bb0066a8d4f079b042955a655f0cd",
    "separability --n 2":
        "565d8516a4c064d52a51f0405c1b5c2dc4a548ac311f27749a04b05343ef95ae",
    "distill --n 2":
        "ce2075796f9aa199099db56a2c86912d019e369410c6c99b45c437989a2b631f",
    "explore er --n 3 --restarts 2 --seed 5":
        "1174a51306e611c2ac7e9d61e715adcea063e0431a440c5772f2363d99a49e33",
}
ONE_BLAS_THREAD = {name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize("args", sorted(RECORDED_STDOUT))
def test_stdout_matches_recorded_digest(runner, args):
    result = invoke(runner, args.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == RECORDED_STDOUT[args]


@pytest.mark.parametrize("args", sorted(RECORDED_DENSE_STDOUT))
def test_dense_stdout_matches_recorded_digest(args):
    proc = subprocess.run(
        [sys.executable, "-m", "belldistill", *args.split()], capture_output=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", **ONE_BLAS_THREAD},
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == RECORDED_DENSE_STDOUT[args]


def test_discriminate_perfect(runner):
    result = invoke(runner, ["discriminate", "--shots", "200", "--seed", "3"])
    assert result.exit_code == 0
    assert payload_of(result)["success_rate"] == 1.0


# --- separability / permutations / sigma-equiv ------------------------------------


def test_separability_n2_with_dump(runner, tmp_path):
    dump = tmp_path / "rho2.json"
    result = invoke(runner, ["separability", "--n", "2", "--dump", str(dump)])
    assert result.exit_code == 0
    data = payload_of(result)
    assert data["is_ppt"] is True
    assert data["smolin_residual"] <= 1e-10
    text = dump.read_text()
    matrix = dump_matrix(text)
    assert np.array_equal(matrix, to_dense(rho_n(2)).matrix)
    assert dm_to_json(DensityOperator(matrix)) + "\n" == text


# sha256 of the files written by --dump, recorded while each qubit was a
# labeled object; the register is now implied by the matrix and the bytes held.
RECORDED_DUMPS = {
    "separability --n 2":
        "6f14d040c54c8555463a6941e37e6fe581c631b9586047a387fcf1533ad6fb56",
    "sigma-equiv --perms 2134,3412 --method dense":
        "112d21cb873a72e76605ea148a8f5e35dfea3d6af7f81bfcb93ee199510826d1",
}


@pytest.mark.parametrize("args", sorted(RECORDED_DUMPS))
def test_dump_matches_recorded_digest(runner, tmp_path, args):
    dump = tmp_path / "state.json"
    result = invoke(runner, [*args.split(), "--dump", str(dump)])
    assert result.exit_code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == RECORDED_DUMPS[args]


def test_separability_n1(runner):
    data = payload_of(invoke(runner, ["separability", "--n", "1"]))
    assert data["distance_to_maximally_mixed"] <= 1e-12


def test_permutations_table(runner):
    result = invoke(runner, ["permutations"])
    assert result.exit_code == 0
    assert "realized 24/24" in result.stdout
    assert "ZS⊗ZS" in result.stdout


def test_permutations_json(runner):
    result = invoke(runner, ["permutations", "--format", "json"])
    data = payload_of(result)
    assert data["count"] == 24
    assert all(r["realized"] for r in data["rows"])
    swap12 = next(r for r in data["rows"] if r["perm"] == "2134")
    assert swap12["pair"] == "ZS⊗ZS"


def test_sigma_equiv_structured_and_dense(runner):
    result = invoke(runner, ["sigma-equiv", "--perms", "2134,3412,1234",
                             "--method", "both"])
    assert result.exit_code == 0
    data = payload_of(result)
    checks = {c["name"]: c for c in data["checks"]}
    assert checks["structured_weight_equality"]["pass"] is True
    assert checks["dense_trace_distance"]["computed"] <= 1e-9


def test_sigma_equiv_structured_large_n(runner):
    perms = ",".join(["2134", "3412", "4321", "1234", "2413", "3142", "4231", "1324"])
    result = invoke(runner, ["sigma-equiv", "--perms", perms])
    assert result.exit_code == 0
    assert payload_of(result)["n"] == 8


def test_sigma_equiv_dense_four_copies(runner):
    result = invoke(runner, ["sigma-equiv", "--perms", "2134,3412,4321,1234",
                             "--method", "both"])
    assert result.exit_code == 0
    assert payload_of(result)["pass"] is True


def test_sigma_equiv_six_copies_same_bytes_on_one_and_two_blas_threads():
    args = ["sigma-equiv", "--perms", "2134,3412,4321,1234,2413,3142", "--method", "both"]
    outputs = []
    for threads in ("1", "2"):
        env = {name: threads for name in ONE_BLAS_THREAD}
        proc = subprocess.run([sys.executable, "-m", "belldistill", *args],
                              capture_output=True,
                              env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", **env})
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["pass"] is True


def test_sigma_equiv_usage_errors(runner):
    assert invoke(runner, ["sigma-equiv", "--perms", "1233"]).exit_code == 2
    for perms in ("2134,,1234,", "2134,", ""):
        result = invoke(runner, ["sigma-equiv", "--perms", perms])
        assert_usage_error(result)
        assert "got ''" in result.stderr
    # seven copies are 14 qubits: the library's dense cap applies
    result = invoke(runner, ["sigma-equiv", "--perms", ",".join(["2134"] * 7),
                             "--method", "dense"])
    assert_usage_error(result)
    assert "capped at 12 qubits" in result.stderr
    for tol in ("-1", "nan", "inf"):
        assert_usage_error(invoke(runner, ["sigma-equiv", "--perms", "2134", "--tol", tol]))


def test_sigma_equiv_dense_checks_the_cap_before_building(runner):
    # 30 qubits: each Bell-product ket would be 16 GiB if it were built
    # before the cap applied
    perms = ",".join(["2134", "3412", "4321"] * 5)
    result = invoke(runner, ["sigma-equiv", "--perms", perms, "--method", "dense"])
    assert_usage_error(result)
    assert "capped at 12 qubits (got 30)" in result.stderr


# --- explore -----------------------------------------------------------------------


def test_explore_er_exploratory_exit_zero(runner):
    result = invoke(runner, ["explore", "er", "--n", "1",
                             "--restarts", "2", "--budget", "300", "--seed", "4"])
    assert result.exit_code == 0
    data = payload_of(result)
    assert data["seed"] == 4
    assert data["method"] == "product-overlap"
    assert data["value_bits"] == pytest.approx(0.0, abs=1e-9)
    assert data["samples"] > 0
    assert data["pass"] is True


def test_explore_er_budget_default_matches_library():
    # `explore er --n N` runs what `er_search(N)` runs
    option = next(p for p in explore_er.params if p.name == "budget")
    assert option.default == inspect.signature(er_search).parameters["budget"].default


def test_explore_er_usage_error(runner):
    assert invoke(runner, ["explore", "er", "--n", "2", "--budget", "0"]).exit_code == 2
    assert_usage_error(invoke(runner, ["explore", "er", "--n", "7"]))
    assert_usage_error(invoke(runner, ["explore", "er", "--n", "2", "--restarts", "0"]))
    result = invoke(runner, ["explore", "er", "--n", "2", "--seed", "-1"])
    assert_usage_error(result)
    assert "'--seed'" in result.stderr


# --- README examples and module entry point ------------------------------------------


def _readme_examples() -> list[list[str]]:
    """The command lines of the fenced block after "Examples:" in README.md."""

    text = (ROOT / "README.md").read_text()
    block = text.split("Examples:", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("belldistill ")]


def test_readme_examples_run(runner):
    examples = _readme_examples()
    assert len(examples) == 6
    with runner.isolated_filesystem():
        for args in examples:
            assert invoke(runner, args).exit_code == 0, args
        assert len(Path("shots.csv").read_text().splitlines()) == 101


def test_python_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "belldistill", "verify", "eq5", "--m", "1"],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pass"] is True
    assert proc.stderr.startswith("# wall_time_s=")
