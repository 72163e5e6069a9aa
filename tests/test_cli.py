import hashlib
import inspect
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from belldistill import DensityOperator, ErReport, er_search, rho_n, sigma_n, to_dense
from belldistill.bell import MAX_COPIES
from belldistill.cli import explore_er, main
from belldistill.states import dm_to_json

from conftest import dense_dump_text, dump_matrix, resident_growth_kib, traced_peak_kib

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


def test_verify_exits_1_when_a_check_fails(runner, monkeypatch):
    # a value 1 bit off the closed form fails its check: exit 1 with the
    # payload, not a crash or a usage error
    import belldistill.cli as cli

    original = cli.er_bound_pair

    def off_by_one(n, method):
        report = original(n, method=method)
        return report._replace(value_bits=report.value_bits + 1.0)

    monkeypatch.setattr(cli, "er_bound_pair", off_by_one)
    result = invoke(runner, ["verify", "er-pair", "--n", "2"])
    assert result.exit_code == 1
    data = payload_of(result)
    assert data["pass"] is False and data["checks"][0]["pass"] is False
    assert data["checks"][0]["computed"] == pytest.approx(1.0, abs=1e-12)


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
    # the gates' tolerances are fixed
    for command in (["eq5", "--m", "3"], ["eq10", "--m", "1"], ["er-pair", "--n", "2"]):
        result = invoke(runner, ["verify", *command, "--tol", "1e-3"])
        assert_usage_error(result)
        assert "No such option '--tol'" in result.stderr


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


@pytest.mark.parametrize("args", [["distill", "--n", "3", "--format", "csv"]],
                         ids=["distill"])
def test_unallocatable_shot_count_is_usage_error(runner, args):
    # the CSV draws one row per shot: 10^16 one-byte draws need 8.9 PiB, past
    # any 48-bit address space, so numpy refuses before it allocates anything
    # (JSON distill and discriminate draw at most shot 0; see below)
    result = invoke(runner, [*args, "--shots", str(10 ** 16)])
    assert_usage_error(result)
    assert "Unable to allocate" in result.stderr


@pytest.mark.parametrize("command, sizes", [("distill", (3, 100, 10 ** 6)),
                                            ("discriminate", (2, 10 ** 6))],
                         ids=["distill", "discriminate"])
def test_answers_do_not_depend_on_shot_count(runner, command, sizes):
    # the answers come from the 16 frame branches, so --shots is only echoed
    # and the time does not grow with it (or with n); each wall time is the
    # best of three runs, which must print the same bytes
    for n in sizes:
        payloads = []
        for shots in (1, 1000, 10 ** 16):
            args = [command, "--n", str(n), "--shots", str(shots), "--seed", "5"]
            runs = [invoke(runner, args) for _ in range(3)]
            assert all(r.exit_code == 0 for r in runs)
            assert len({r.stdout for r in runs}) == 1
            assert min(float(r.stderr.rsplit("wall_time_s=", 1)[1]) for r in runs) <= 0.001
            payload = payload_of(runs[0])
            assert (payload["pass"], payload["n"], payload["shots"]) == (True, n, shots)
            del payload["shots"]
            payloads.append(payload)
        assert payloads[0]["success_rate"] == 1.0
        assert payloads[1:] == payloads[:-1]


@pytest.mark.parametrize("method", ["structured", "dense"])
@pytest.mark.parametrize("args", [["eq5", "--m"], ["eq10", "--m"], ["er-pair", "--n"]])
def test_unallocatable_copy_count_is_usage_error(runner, args, method):
    # 10^16 copies: the structured path's copy strings would need about
    # 160 PB, so rho_n refuses the copy count before it builds anything;
    # the dense path must stop at the 12-qubit cap before it builds anything
    result = invoke(runner, ["verify", *args, str(10 ** 16), "--method", method])
    assert_usage_error(result)
    message = result.stderr.split("Error:", 1)[1].strip()
    if method == "dense":
        assert message.startswith("dense operations are capped at 12 qubits")
    else:
        assert message.startswith("copy count ") and message.endswith(", the most rho_n builds")


@pytest.mark.parametrize("args, copies", [
    (["eq5", "--m", str(MAX_COPIES // 2 + 1)], MAX_COPIES + 2),  # rho_n(2m)
    (["eq10", "--m", str(MAX_COPIES // 2)], MAX_COPIES + 1),  # rho_n(2m + 1), twice
    (["er-pair", "--n", str(MAX_COPIES + 1)], MAX_COPIES + 1),  # rho_n(n), twice
], ids=["eq5", "eq10", "er-pair"])
def test_first_oversized_copy_count_is_usage_error(runner, args, copies):
    # each command's smallest size past the limit; eq5 --m 10^8 was killed
    # for memory before rho_n refused sizes above MAX_COPIES
    result = invoke(runner, ["verify", *args])
    assert_usage_error(result)
    assert result.stderr.splitlines()[-1] == (
        f"Error: copy count {copies} > {MAX_COPIES}, the most rho_n builds")


def test_dense_verify_never_imports_numpy_ma():
    # a bare np.unique reaches np.ma.is_masked, and importing numpy.ma cost
    # about 4.5 ms on the first dense solve of every process
    code = ("import runpy, sys\n"
            "sys.argv = ['belldistill', 'verify', 'eq5', '--m', '2', '--method', 'dense']\n"
            "try:\n"
            "    runpy.run_module('belldistill', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print('numpy.ma' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True
    assert proc.stderr.splitlines()[-1] == "False"


def test_sampling_commands_never_import_numpy_random():
    # the first default_rng call imported numpy.random, about 5 ms of a
    # distill or explore er command; shots and restarts use the stdlib random
    commands = [["distill", "--n", "6", "--shots", "1000", "--format", "csv"],
                ["discriminate"], ["explore", "er", "--n", "3", "--restarts", "2"]]
    code = ("import runpy, sys\n"
            f"for argv in {commands!r}:\n"
            "    sys.argv = ['belldistill', *argv]\n"
            "    try:\n"
            "        runpy.run_module('belldistill', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, (argv, exc.code)\n"
            "print('numpy.random' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


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
# as a nibble of one standard-library random.Random(seed) stream, which
# changed the sampled transcript and CSV rows; discriminate prints only the
# rate, so its digests held.
RECORDED_STDOUT = {
    "distill --n 3 --shots 200 --seed 11":
        "46a1968de906ff6971246fbacd39936c240c25024a5bd7ded05c0ccedb28c162",
    "distill --n 6 --shots 200 --seed 11 --format csv":
        "9ccfc17aa319e858e8c401b32afa0e5992a947cd9ebaeb191c6f4e4f8f7d4d2a",
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
    # the copy limits of rho_n (eq5, er-pair) and rho2_power (eq10)
    "verify er-pair --n 1000000":
        "ab2e1cf26fcb523a9b2941cf1bc7759c658f906a4f22eae40c521fa6f85341f0",
    "verify eq10 --m 499999":
        "3bf63ec873a6616776caff8e7b99e06cb485878a8a5eb2fd1e303ef3350b7d9a",
    "verify eq5 --m 500000":
        "7378d7ddde6bcd1872b8992b8fdb91a39bfef5145f352c85812244732dcb6242",
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
    # the 12-qubit cap, recorded while to_dense filled every state's matrix
    "verify eq5 --m 3 --method dense":
        "8b4295e54f313c5163c71f815e1374ccf4f3208b835dba92cee5b4810edbc8e8",
    "verify eq10 --m 1 --method dense":
        "0ff49cf028f12001b7fcac2bc825cb5534ebf84c428fd4dce8394dccc23766d5",
    "verify er-pair --n 3 --method dense":
        "c441f24dad39e63664ed25a67beea12968d0619c8d83a127da2bcf369c3c3eea",
    "sigma-equiv --perms 2134,3412,4321,1234,2143,3421 --method both":
        "86b922f0ee6f08af748a435485d8b953a726186ae5163bfcbc14f371e8856922",
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
    assert matrix.tobytes() == to_dense(rho_n(2)).matrix.tobytes()
    assert dm_to_json(DensityOperator(matrix)) + "\n" == text


FIVE_COPY_DUMP = "sigma-equiv --perms 2134,3412,1234,4321,2143 --method both"

# sha256 of each file --dump writes, and of the text it converts back to: the
# whole matrix, row-major, as [re, im] pairs, the format --dump wrote before
# it wrote entries and values.  The two-copy sigma-equiv case was recorded
# under --method dense, an alias of both.
RECORDED_DUMPS = {
    "separability --n 2": (
        "923b5a79768abf46e745b15e0b5fb191d71b00e2faa2cfcc6155f931a77a7bea",
        "6f14d040c54c8555463a6941e37e6fe581c631b9586047a387fcf1533ad6fb56"),
    "sigma-equiv --perms 2134,3412 --method both": (
        "09a4f009880191baa5c5680cd57aaf4f74d6e0ee1c68a1f3218a72b351c6bf9e",
        "112d21cb873a72e76605ea148a8f5e35dfea3d6af7f81bfcb93ee199510826d1"),
    FIVE_COPY_DUMP: (
        "eb49214518533b5cd8432dc81049c98f52e7ce4c1771bcd81cc9755a0c6545ba",
        "768313165b86ac28d9ec62704d4a1e838ba279c61d793ffe9e27958f41e277e1"),
}


@pytest.mark.parametrize("args", sorted(RECORDED_DUMPS))
def test_dump_matches_recorded_digest(runner, tmp_path, args):
    dump = tmp_path / "state.json"
    result = invoke(runner, [*args.split(), "--dump", str(dump)])
    assert result.exit_code == 0
    entries_digest, dense_digest = RECORDED_DUMPS[args]
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == entries_digest
    dense = dense_dump_text(dump.read_text()) + "\n"
    assert hashlib.sha256(dense.encode()).hexdigest() == dense_digest


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_dump_writes_the_entries_not_the_matrix(tmp_path):
    # five copies: the dump holds the 1,024 nonzero entries of 2^20 (43 KB).
    # Traced, the command peaks at 434 KiB; writing the text of json.dumps,
    # which holds every piece of it before joining them, took 699 KiB
    dump = tmp_path / "state.json"
    args = [*FIVE_COPY_DUMP.split(), "--dump", str(dump)]
    setup = "from click.testing import CliRunner\nfrom belldistill.cli import main"
    run = f"assert CliRunner().invoke(main, {args!r}).exit_code == 0"
    assert resident_growth_kib(setup, run) < 32 * 1024  # KiB
    assert traced_peak_kib(setup, run) < 512  # KiB
    rho, text = to_dense(sigma_n(args[2].split(","))), dump.read_text()
    assert text == dm_to_json(rho) + "\n"
    assert dump_matrix(text).tobytes() == rho.matrix.tobytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_twelve_qubit_dense_verify_maps_no_matrix():
    # to_dense keeps rho_n(6) and rho2_power(3) as their entries and values.
    # Filling their matrices on private mappings took the peak resident set
    # up by 13.3-13.9 MiB (3.4 MiB without), and tracemalloc read 1.48 MiB
    # (0.94 MiB), sorting each state's candidate entries
    setup = "from click.testing import CliRunner\nfrom belldistill.cli import main"
    run = ("assert CliRunner().invoke(main, "
           "['verify', 'eq5', '--m', '3', '--method', 'dense']).exit_code == 0")
    assert resident_growth_kib(setup, run) < 8 * 1024  # KiB
    assert traced_peak_kib(setup, run) < 1280  # KiB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_six_copy_sigma_equiv_keeps_its_mixture_as_entries():
    # the one 12-qubit command whose compared state is mixed by dm_from_ensemble
    # on a filled matrix; it keeps only the mixture's 4,096 entries and their
    # values.  About 3.5 MiB resident growth and 0.75 MiB traced
    setup = "from click.testing import CliRunner\nfrom belldistill.cli import main"
    run = ("assert CliRunner().invoke(main, ['sigma-equiv', '--perms', "
           "'2134,3412,4321,1234,2143,3421', '--method', 'both']).exit_code == 0")
    assert resident_growth_kib(setup, run) < 8 * 1024  # KiB
    assert traced_peak_kib(setup, run) < 1024  # KiB


def test_separability_n1(runner):
    data = payload_of(invoke(runner, ["separability", "--n", "1"]))
    assert data["distance_to_maximally_mixed"] <= 1e-12


def test_permutations_table(runner):
    result = invoke(runner, ["permutations"])
    assert result.exit_code == 0
    assert "realized 24/24" in result.stdout
    assert "ZS⊗ZS" in result.stdout


def test_a_failed_internal_check_is_one_error_line(runner, monkeypatch):
    # a pair that no longer realizes its permutation fails _realizations'
    # check: exit 1 ("a check failed") with one Error: line, not a traceback
    from belldistill import permutations

    monkeypatch.setattr(permutations, "permutation_action", lambda pair: None)
    permutations._realizations.cache_clear()
    result = invoke(runner, ["permutations"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == "Error: I⊗I does not realize a new Bell permutation\n"


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
    rng = random.Random(10_000)
    perms = ",".join("".join(map(str, rng.sample((1, 2, 3, 4), 4))) for _ in range(10_000))
    result = invoke(runner, ["sigma-equiv", "--perms", perms])
    assert result.exit_code == 0
    data = payload_of(result)
    assert data["n"] == 10_000 and data["perms"] == perms.split(",") and data["pass"] is True
    assert {c["name"]: c["computed"] for c in data["checks"]} == {
        "structured_weight_equality": True}
    # the copies' four strings are not all constant, so sigma leaves rho_n's support
    assert data["kl_sigma_vs_mixture_bits"] == "infinity"


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


def test_sigma_equiv_usage_errors(runner, tmp_path):
    for perms, bad in (("2134,,1234,", "''"), ("2134,", "''"), ("", "''"), ("1233", "'1233'"),
                       ("2134,213", "'213'"), ("2134,21345", "'21345'")):
        result = invoke(runner, ["sigma-equiv", "--perms", perms])
        assert_usage_error(result)
        assert result.stderr.splitlines()[-1] == f"Error: not a permutation of 1..4: {bad}"
    # seven copies are 14 qubits: the library's dense cap applies
    result = invoke(runner, ["sigma-equiv", "--perms", ",".join(["2134"] * 7),
                             "--method", "both"])
    assert_usage_error(result)
    assert "capped at 12 qubits" in result.stderr
    result = invoke(runner, ["sigma-equiv", "--perms", "2134", "--tol", "1e-3"])
    assert_usage_error(result)
    assert "No such option '--tol'" in result.stderr
    # the dense matrix it would write is built only by the dense check
    result = invoke(runner, ["sigma-equiv", "--perms", "2134",
                             "--dump", str(tmp_path / "state.json")])
    assert_usage_error(result)
    assert result.stderr.splitlines()[-1] == "Error: --dump needs --method both"
    assert not (tmp_path / "state.json").exists()


@pytest.mark.parametrize("args", [
    ["verify", "eq5", "--m", "1"], ["verify", "eq10", "--m", "1"],
    ["verify", "er-pair", "--n", "2"], ["discriminate"], ["separability", "--n", "1"],
    ["sigma-equiv", "--perms", "2134"], ["explore", "er", "--n", "1"],
], ids=["verify eq5", "verify eq10", "verify er-pair", "discriminate", "separability",
        "sigma-equiv", "explore er"])
def test_json_only_commands_take_no_format_option(runner, args):
    # these print JSON only, so there is no format to choose
    result = invoke(runner, [*args, "--format", "json"])
    assert_usage_error(result)
    assert "No such option '--format'" in result.stderr


def test_sigma_equiv_dense_checks_the_cap_before_building(runner):
    # 30 qubits: each Bell-product ket would be 16 GiB if it were built
    # before the cap applied
    perms = ",".join(["2134", "3412", "4321"] * 5)
    result = invoke(runner, ["sigma-equiv", "--perms", perms, "--method", "both"])
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


@pytest.mark.parametrize("n", [1, 2])
def test_explore_er_never_prints_below_the_floor(runner, n):
    # eigensolver rounding puts some raw values just under n - 2
    for seed in range(5):
        data = payload_of(invoke(runner, ["explore", "er", "--n", str(n),
                                          "--restarts", "3", "--seed", str(seed)]))
        assert data["floor_bits"] == max(n - 2, 0)
        assert data["value_bits"] >= data["floor_bits"], seed
        assert min(data["restart_values"]) >= data["floor_bits"], seed
        assert data["value_bits"] == pytest.approx(max(n - 2, 0), abs=1e-9)


def test_explore_er_payload_keys_are_the_report_fields(runner):
    # ErReport's fields are the payload's keys, the best product state aside
    data = payload_of(invoke(runner, ["explore", "er", "--n", "2", "--restarts", "1"]))
    states = {"alice_state", "bob_state"}
    assert states <= set(ErReport._fields)
    assert set(data) - {"command", "pass"} == set(ErReport._fields) - states | {"method"}


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
