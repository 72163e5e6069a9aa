"""The benchmark's workloads: seeded question lists with checked answers.

Every question goes through a public entry point: the `belldistill.cli`
commands where one exists (invoked in-process, stdout captured), and the
package's public functions otherwise.  Each question returns the bytes it
would show a user (the command's stdout, or a canonical JSON rendering of a
function's result) plus a check verdict.  A question fails when its check
fails or when it raises; the reason is kept as one line.

Run as a script, this file executes one pass of one workload in the current
(fresh) process and prints the pass result as one JSON line:

    python3 perfbench/workloads.py --workload er-bound --seed 1 --pass-index 0 [--spans FILE]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable

STRUCTURED_TOL = 1e-12  # the repo's structured-path tolerance
DENSE_TOL = 1e-8  # the repo's dense-path tolerance
FIDELITY_FLOOR = 1 - 1e-12
ER_CONTROL_MAX = 0.1  # n = 2 search convergence bound used by tests/test_measures.py

WORKLOADS = ("dense-xcheck", "distill-shots", "er-bound", "structured-scale")

# Question sizes.  The smoke sizes exist for perfbench/test_perfbench.py only.
SIZES = {
    "full": {"rho_big": 6, "rho_mid": 5, "branches": 5, "distill_shots": 1000,
             "discriminate_shots": 1000, "er2_budget": 8000, "er3_budget": 2000,
             "sigma_perms": 300, "kl_m": 9, "json_m": 7},
    "smoke": {"rho_big": 4, "rho_mid": 3, "branches": 3, "distill_shots": 20,
              "discriminate_shots": 20, "er2_budget": 8000, "er3_budget": 100,
              "sigma_perms": 20, "kl_m": 4, "json_m": 3},
}


class CheckFailed(Exception):
    pass


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


@dataclass
class Question:
    name: str
    run: Callable[[], tuple[bytes, dict]]  # -> (user-visible bytes, facts)
    shots: int = 0  # simulated shots, for shots_per_s


# --- CLI questions -----------------------------------------------------------


def _cli(args: list[str]) -> bytes:
    from click.testing import CliRunner

    from belldistill.cli import main

    result = CliRunner().invoke(main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    expect(result.exit_code == 0, f"exit code {result.exit_code}")
    return result.stdout_bytes


def _checked_payload(args: list[str], tol: float | None = None) -> tuple[bytes, dict]:
    out = _cli(args)
    payload = json.loads(out)
    expect(payload.get("pass") is True, "payload pass flag is not true")
    for check in payload.get("checks", []):
        expect(check["pass"] is True, f"check {check['name']} failed")
        if tol is not None and isinstance(check["expected"], float):
            gap = abs(check["computed"] - check["expected"])
            expect(gap <= tol, f"{check['name']} off by {gap:.3e} (> {tol:g})")
    return out, payload


def q_verify(args: list[str], tol: float | None) -> Callable:
    return lambda: _checked_payload(args, tol)


def q_distill_json(n: int, shots: int, seed: int) -> Callable:
    def run():
        out, p = _checked_payload(["distill", "--n", str(n), "--shots", str(shots),
                                   "--seed", str(seed)])
        expect(p["shots"] == shots, "shot count differs")
        expect(p["success_rate"] == 1.0, f"success rate {p['success_rate']}")
        expect(p["ebits_per_shot"] == n - 2, f"{p['ebits_per_shot']} ebits, expected {n - 2}")
        expect(p["min_fidelity"] >= FIDELITY_FLOOR, f"min fidelity {p['min_fidelity']}")
        return out, {}
    return run


def q_distill_csv(n: int, shots: int, seed: int) -> Callable:
    def run():
        out = _cli(["distill", "--n", str(n), "--shots", str(shots), "--seed", str(seed),
                    "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        expect(len(rows) == shots, f"{len(rows)} rows, expected {shots}")
        expect(all(r["correct"] == "1" and r["hidden"] == r["guess"] for r in rows),
               "a shot misidentified the hidden index")
        expect(all(int(r["ebits"]) == n - 2 for r in rows), "wrong ebit yield")
        worst = min(float(r["fidelity"]) for r in rows)
        expect(worst >= FIDELITY_FLOOR, f"min fidelity {worst}")
        return out, {}
    return run


def q_discriminate(n: int, shots: int, seed: int) -> Callable:
    def run():
        out, p = _checked_payload(["discriminate", "--n", str(n), "--shots", str(shots),
                                   "--seed", str(seed)])
        expect(p["success_rate"] == 1.0, f"success rate {p['success_rate']}")
        return out, {}
    return run


def q_explore_er(n: int, budget: int, seed: int) -> Callable:
    def run():
        out, p = _checked_payload(["explore", "er", "--n", str(n), "--restarts", "1",
                                   "--budget", str(budget), "--seed", str(seed)])
        value = p["value_bits"]
        expect(isinstance(value, float) and math.isfinite(value), f"value {value!r}")
        if n == 2:
            expect(-1e-6 <= value <= ER_CONTROL_MAX,
                   f"n = 2 control at {value:.4f} bits, expected 0 (<= {ER_CONTROL_MAX})")
        else:
            expect(value >= n - 2 - 1e-9, f"{value} bits undercuts the floor {n - 2}")
        return out, {"er_bits": value, "er_evaluations": p["samples"]}
    return run


def q_permutations() -> Callable:
    def run():
        out, p = _checked_payload(["permutations", "--format", "json"])
        expect(p["count"] == 24, f"{p['count']} permutations")
        expect(all(r["realized"] for r in p["rows"]), "a permutation was not realized")
        return out, {}
    return run


# --- function questions ------------------------------------------------------


def _render(value) -> bytes:
    return (json.dumps(value, sort_keys=True) + "\n").encode()


def q_rho_mid_measures(n: int) -> Callable:
    def run():
        import belldistill as bd

        rho = bd.to_dense(bd.rho_n(n))
        entropy = bd.von_neumann_entropy(rho)
        ppt = bd.ppt_check(rho)
        logneg = bd.log_negativity(rho)
        expect(abs(entropy - 2.0) <= DENSE_TOL, f"entropy {entropy}, expected 2")
        expect(not ppt.is_ppt, "distillable mixture reported PPT")
        # log negativity bounds distillable entanglement, E_N >= E_D = n - 2
        expect(logneg >= n - 2 - DENSE_TOL, f"log negativity {logneg} < {n - 2}")
        return _render({"entropy_bits": entropy, "ppt_min_eigenvalue": ppt.min_eigenvalue,
                        "log_negativity_bits": logneg}), {}
    return run


def q_exact_branches(n: int) -> Callable:
    def run():
        import belldistill as bd

        analysis = bd.distill_exact_branches(n)
        total = analysis.total_probability()
        worst = min(b.output_fidelity for b in analysis.branches)
        expect(abs(total - 1.0) <= STRUCTURED_TOL, f"branch probabilities sum to {total}")
        expect(all(b.guess == b.hidden for b in analysis.branches), "a branch misidentified")
        expect(worst >= FIDELITY_FLOOR, f"min branch fidelity {worst}")
        return _render({"branches": len(analysis.branches), "total_probability": total,
                        "min_fidelity": worst}), {}
    return run


def q_dense_big(n: int) -> Callable:
    def run():
        import belldistill as bd

        rho = bd.to_dense(bd.rho_n(n))
        fids = [bd.fidelity_pure(rho, bd.bell_product_ket((i,) * n)) for i in (1, 2, 3, 4)]
        expect(all(abs(f - 0.25) <= DENSE_TOL for f in fids), f"fidelities {fids}")
        return _render({"fidelities": fids}), {}
    return run


def q_kl_pair_reference(m: int) -> Callable:
    def run():
        import belldistill as bd

        value = bd.bell_diagonal_kl(bd.rho_n(2 * m), bd.rho2_power(m))
        expect(abs(value - (2 * m - 2)) <= STRUCTURED_TOL, f"KL {value}, expected {2 * m - 2}")
        return _render({"kl_bits": value}), {}
    return run


def q_pairwise_separable(m: int, rng_seed: int) -> Callable:
    import numpy as np

    rng = np.random.default_rng(rng_seed)

    def run():
        import belldistill as bd

        sigma = bd.sample_pairwise_separable(m, rng)
        n = 2 * m
        value = bd.bell_diagonal_kl(bd.rho_n(n), sigma)
        expect(value >= n - 2 - STRUCTURED_TOL, f"KL {value} undercuts E_D = {n - 2}")
        return _render({"kl_bits": value, "strings": len(sigma.weights)}), {}
    return run


def q_json_roundtrip(m: int) -> Callable:
    def run():
        import belldistill as bd

        state = bd.rho2_power(m)
        text = state.to_json()
        back = bd.BellDiagonalState.from_json(text)
        expect(back == state, "JSON round trip changed the state")
        return _render({"bytes": len(text), "strings": len(back.weights)}), {}
    return run


# --- workloads ---------------------------------------------------------------


def _perm(rng: random.Random) -> str:
    return "".join(map(str, rng.sample((1, 2, 3, 4), 4)))


def build(workload: str, seed: int, size: str = "full", pass_index: int = 0) -> list[Question]:
    """The question list of one workload; every seeded input is drawn here
    from `seed` and the pass index, so the program sees only the generated
    values and the passes of one run cover several draws."""

    z = SIZES[size]
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    draw = lambda: rng.randrange(2 ** 31)  # noqa: E731
    if workload == "dense-xcheck":
        perms = ",".join(_perm(rng) for _ in range(3))
        return [
            Question("eq5_dense_m2", q_verify(["verify", "eq5", "--m", "2", "--method", "dense"],
                                              DENSE_TOL)),
            Question("er_pair_dense_n2", q_verify(["verify", "er-pair", "--n", "2",
                                                   "--method", "dense"], DENSE_TOL)),
            Question("separability_n1", q_verify(["separability", "--n", "1"], None)),
            Question("separability_n2", q_verify(["separability", "--n", "2"], None)),
            Question("sigma_equiv_both", q_verify(["sigma-equiv", "--perms", perms,
                                                   "--method", "both"], None)),
            Question("permutations_json", q_permutations()),
            Question("rho_mid_measures", q_rho_mid_measures(z["rho_mid"])),
            Question("exact_branches", q_exact_branches(z["branches"])),
            Question("dense_rho_big", q_dense_big(z["rho_big"])),
        ]
    if workload == "distill-shots":
        shots, dshots = z["distill_shots"], z["discriminate_shots"]
        return [
            Question("distill_n3", q_distill_json(3, shots, draw()), shots=shots),
            Question("distill_n6_csv", q_distill_csv(6, shots, draw()), shots=shots),
            Question("discriminate_n2", q_discriminate(2, dshots, draw()), shots=dshots),
        ]
    if workload == "er-bound":
        return [
            Question("er_n2_control", q_explore_er(2, z["er2_budget"], draw())),
            Question("er_n3", q_explore_er(3, z["er3_budget"], draw())),
        ]
    if workload == "structured-scale":
        perms = ",".join(_perm(rng) for _ in range(z["sigma_perms"]))
        return [
            Question("eq5_m1000", q_verify(["verify", "eq5", "--m", "1000"], STRUCTURED_TOL)),
            Question("eq10_m499", q_verify(["verify", "eq10", "--m", "499"], STRUCTURED_TOL)),
            Question("er_pair_n999", q_verify(["verify", "er-pair", "--n", "999"],
                                              STRUCTURED_TOL)),
            Question("sigma_equiv_structured", q_verify(["sigma-equiv", "--perms", perms],
                                                        None)),
            Question("kl_pair_reference", q_kl_pair_reference(z["kl_m"])),
            Question("pairwise_sep_m4", q_pairwise_separable(4, draw())),
            # Raises for most draws (a 1e-12 absolute weight-sum tolerance on a
            # 10^6-string product); kept at m = 5 so the failure shows.
            Question("pairwise_sep_m5", q_pairwise_separable(5, draw())),
            Question("json_roundtrip", q_json_roundtrip(z["json_m"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- one pass in this process ------------------------------------------------


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}".strip()}


def run_pass(workload: str, seed: int, pass_index: int, size: str,
             spans_path: str | None) -> dict:
    import belldistill  # noqa: F401  (import cost is setup_s, not wall_s)
    import belldistill.cli  # noqa: F401

    questions = build(workload, seed, size, pass_index)
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    started = time.perf_counter()
    try:
        for index, q in enumerate(questions):
            t0 = time.perf_counter()
            try:
                if tracer:
                    out, facts = tracer.run_question(index, f"cli.{q.name}", q.run)
                else:
                    out, facts = q.run()
                ok, reason = True, ""
            except CheckFailed as exc:
                out, facts, ok, reason = b"", {}, False, str(exc)
            except Exception as exc:  # a raising question is counted, not fatal
                text = str(exc).splitlines()[0] if str(exc) else ""
                out, facts, ok, reason = b"", {}, False, f"{type(exc).__name__}: {text}"
            results.append({"name": q.name, "ok": ok, "reason": reason,
                            "seconds": time.perf_counter() - t0, "shots": q.shots,
                            "stdout_bytes": len(out),
                            "stdout_sha256": hashlib.sha256(out).hexdigest(), **facts})
        wall = time.perf_counter() - started
    finally:
        if tracer:
            tracer.remove()
    result = {"workload": workload, "seed": seed, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "questions": results, "env": _environment()}
    if tracer:
        from spans import aggregate

        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["layers"] = aggregate(tracer.spans)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--spans", default=None, help="trace the pass; write spans here")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.pass_index, args.size, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
