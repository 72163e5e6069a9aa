"""Command-line surface: every verification and simulation as a scriptable
command with machine-readable output.

Exit codes: 0 = all checks pass, 1 = a quantitative check failed,
2 = usage error.  Payloads embed the seed and tolerances used; re-running
with the same configuration reproduces stdout byte for byte (wall time goes
to stderr, never into the payload).  Non-finite values are serialized as the
string "infinity" so payloads remain strict JSON.

Default seed is 0 everywhere.
"""

from __future__ import annotations

import json
import math
import time

import click

from .bell import (
    bell_diagonal_kl,
    invert_permutation,
    parse_permutation,
    rho_n,
    sigma_n,
    to_dense,
)
from .entropies import trace_distance
from .locc import discrimination_rate, distill as run_distill, distill_trivial
from .measures import (
    DivergenceReport,
    er_bound_even,
    er_bound_odd_doubled,
    er_bound_pair,
    er_search,
)
from .permutations import (
    ALL_PERMUTATIONS,
    local_permutation_search,
    permutation_action,
    permutation_table,
)
from .states import apply_local, dm_to_json

DEFAULT_SEED = 0
DENSE_TOL = 1e-8
STRUCTURED_TOL = 1e-12


def _json_num(x: float):
    if x is None:
        return None
    if math.isinf(x):
        return "infinity"
    return float(x)


def _emit(payload: dict, out: str | None, fmt: str = "json", csv_text: str | None = None):
    if fmt == "csv":
        if csv_text is None:
            raise click.UsageError("this command has no CSV form")
        text = csv_text
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _finish(ctx, passed: bool, started: float):
    click.echo(f"# wall_time_s={time.perf_counter() - started:.3f}", err=True)
    ctx.exit(0 if passed else 1)


class _Toolkit(click.Group):
    """Reports the library's size-cap and range errors as usage errors
    (exit 2, one line) instead of tracebacks."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Toolkit)
def main():
    """Bell-ensemble verification and LOCC distillation toolkit."""


# --- verify ------------------------------------------------------------------


@main.group()
def verify():
    """Check a closed-form divergence value and exit 0/1."""


def _divergence_payload(command: str, report: DivergenceReport, expected: float,
                        formula: str, tol: float, extra_checks=()) -> tuple[dict, bool]:
    checks = [{
        "name": "divergence_bits",
        "computed": _json_num(report.value_bits),
        "expected": _json_num(expected),
        "formula": formula,
        "tolerance": tol,
        "pass": abs(report.value_bits - expected) <= tol,
    }]
    checks.extend(extra_checks)
    passed = all(c["pass"] for c in checks)
    payload = {
        "command": command,
        "method": report.method,
        "checks": checks,
        "support_contained": report.support_contained,
        "support_overlap": report.support_overlap,
        "raw_divergence_bits": _json_num(report.raw_divergence_bits),
        "pass": passed,
    }
    return payload, passed


def _tol_for(method: str, tol: float | None) -> float:
    if tol is not None:
        return tol
    return DENSE_TOL if method == "dense" else STRUCTURED_TOL


@verify.command("eq5")
@click.option("--m", "m", type=click.IntRange(min=1), required=True,
              help="block count; value is 2m-2")
@click.option("--method", type=click.Choice(["structured", "dense"]), default="structured")
@click.option("--tol", type=click.FloatRange(min=0), default=None,
              help="override comparison tolerance")
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def verify_eq5(ctx, m, method, tol, fmt, out):
    """Even-copy divergence: S over 2m copies against the pairwise product."""

    t0 = time.perf_counter()
    tol = _tol_for(method, tol)
    report = er_bound_even(m, method=method)
    payload, passed = _divergence_payload("verify eq5", report, float(2 * m - 2),
                                          "2m-2", tol)
    payload["m"] = m
    _emit(payload, out, fmt)
    _finish(ctx, passed, t0)


@verify.command("eq10")
@click.option("--m", "m", type=click.IntRange(min=1), required=True,
              help="odd case n=2m+1; value is 4m-2")
@click.option("--method", type=click.Choice(["structured", "dense"]), default="structured")
@click.option("--tol", type=click.FloatRange(min=0), default=None)
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def verify_eq10(ctx, m, method, tol, fmt, out):
    """Odd-copy doubled divergence: closed form 4m-2, halved per-copy n-2."""

    t0 = time.perf_counter()
    if method == "dense" and m > 1:
        raise click.UsageError("dense path is capped at m = 1 (12 qubits)")
    tol = _tol_for(method, tol)
    report = er_bound_odd_doubled(m, method=method)
    n = 2 * m + 1
    halved_check = {
        "name": "halved_bits",
        "computed": _json_num(report.halved_bits),
        "expected": float(n - 2),
        "formula": "n-2",
        "tolerance": tol,
        "pass": abs(report.halved_bits - (n - 2)) <= tol,
    }
    payload, passed = _divergence_payload("verify eq10", report, float(4 * m - 2),
                                          "4m-2", tol, extra_checks=[halved_check])
    payload["m"] = m
    payload["n"] = n
    _emit(payload, out, fmt)
    _finish(ctx, passed, t0)


@verify.command("er-pair")
@click.option("--n", "n", type=click.IntRange(min=1), required=True,
              help="copies per factor; value is 2n-4")
@click.option("--method", type=click.Choice(["structured", "dense"]), default="structured")
@click.option("--tol", type=click.FloatRange(min=0), default=None)
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def verify_er_pair(ctx, n, method, tol, fmt, out):
    """Doubled-mixture divergence against the pairwise product: 2n-4."""

    t0 = time.perf_counter()
    if method == "dense" and n > 3:
        raise click.UsageError("dense path is capped at n = 3 (12 qubits)")
    tol = _tol_for(method, tol)
    report = er_bound_pair(n, method=method)
    payload, passed = _divergence_payload("verify er-pair", report, float(2 * n - 4),
                                          "2n-4", tol)
    payload["n"] = n
    _emit(payload, out, fmt)
    _finish(ctx, passed, t0)


# --- distill / discriminate ---------------------------------------------------


@main.command("distill")
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--shots", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def distill_cmd(ctx, n, shots, seed, fmt, out):
    """Distill n copies into n-2 ebits (n >= 3); n in {1,2} reports the
    zero-yield evidence instead."""

    t0 = time.perf_counter()
    if n in (1, 2):
        if fmt == "csv":
            raise click.UsageError("the zero-yield cases have no per-shot rows; "
                                   "use --format json")
        payload, passed = _zero_yield_payload(n)
        payload["seed"] = seed
        _emit(payload, out, fmt)
        _finish(ctx, passed, t0)
        return
    report = run_distill(n, shots=shots, seed=seed)
    passed = (report.success_rate == 1.0
              and report.ebits_per_shot == n - 2
              and report.mean_fidelity >= 1 - 1e-12)
    payload = report.to_dict()
    payload["pass"] = passed
    _emit(payload, out, fmt, csv_text=report.to_csv())
    _finish(ctx, passed, t0)


@main.command("discriminate")
@click.option("--n", "n", type=click.IntRange(min=2), default=2, show_default=True,
              help="copies; two are consumed")
@click.option("--shots", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def discriminate_cmd(ctx, n, shots, seed, fmt, out):
    """Two-copy Bell discrimination over seeded shots; must be exact."""

    t0 = time.perf_counter()
    rate = discrimination_rate(n, shots, seed)
    passed = rate == 1.0
    payload = {
        "command": "discriminate",
        "n": n,
        "shots": shots,
        "seed": seed,
        "success_rate": rate,
        "pass": passed,
    }
    _emit(payload, out, fmt)
    _finish(ctx, passed, t0)


# --- separability evidence -----------------------------------------------------


def _zero_yield_payload(n: int) -> tuple[dict, bool]:
    """The n = 1 or 2 evidence with its pass flag: maximally mixed, or PPT
    with the flip identity."""

    payload = distill_trivial(n).to_dict()
    if n == 1:
        passed = payload["distance_to_maximally_mixed"] <= 1e-12
    else:
        passed = payload["is_ppt"] and payload["smolin_residual"] <= 1e-10
    payload["pass"] = passed
    return payload, passed


@main.command("separability")
@click.option("--n", "n", type=click.Choice(["1", "2"]), required=True)
@click.option("--dump", type=click.Path(), default=None,
              help="write the dense state in the JSON matrix format")
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def separability_cmd(ctx, n, dump, fmt, out):
    """Checkable separability evidence for the one- and two-copy mixtures."""

    t0 = time.perf_counter()
    n = int(n)
    payload, passed = _zero_yield_payload(n)
    payload["command"] = "separability"
    if dump:
        with open(dump, "w") as fh:
            fh.write(dm_to_json(to_dense(rho_n(n))) + "\n")
    _emit(payload, out, fmt)
    _finish(ctx, passed, t0)


# --- permutations ----------------------------------------------------------------


@main.command("permutations")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def permutations_cmd(ctx, fmt, out):
    """Realize all 24 Bell-basis permutations by local unitary pairs."""

    t0 = time.perf_counter()
    table = permutation_table()
    rows = []
    all_ok = True
    for perm in sorted(ALL_PERMUTATIONS):
        pair = table.get(perm)
        if pair is None:
            all_ok = False
            rows.append({"perm": "".join(map(str, perm)), "realized": False})
            continue
        action = permutation_action(pair)
        ok = action is not None and action.perm == perm
        all_ok &= ok
        rows.append({
            "perm": "".join(map(str, perm)),
            "realized": ok,
            "pair": pair.name,
            "phases": [[round(p.real, 6), round(p.imag, 6)] for p in action.phases],
        })
    if fmt == "json":
        payload = {"command": "permutations", "count": len(rows),
                   "rows": rows, "pass": all_ok}
        _emit(payload, out, "json")
    else:
        lines = [f"{'perm':<6} {'pair':<14} phases"]
        for r in rows:
            phases = ", ".join(f"{a:+g}{b:+g}i" for a, b in r.get("phases", []))
            lines.append(f"{r['perm']:<6} {r.get('pair', '-'):<14} {phases}")
        lines.append(f"realized {sum(r['realized'] for r in rows)}/24")
        text = "\n".join(lines) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
    _finish(ctx, all_ok, t0)


# --- sigma equivalence --------------------------------------------------------------


@main.command("sigma-equiv")
@click.option("--perms", required=True,
              help="comma-separated one-line permutations, one per copy, e.g. 2134,1234")
@click.option("--method", type=click.Choice(["structured", "dense", "both"]),
              default="structured")
@click.option("--tol", type=click.FloatRange(min=0), default=1e-9)
@click.option("--dump", type=click.Path(), default=None,
              help="write the dense permuted mixture in the JSON matrix format")
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def sigma_equiv_cmd(ctx, perms, method, tol, dump, fmt, out):
    """Map a per-copy permuted mixture back to the plain mixture by local
    unitaries found via the permutation search."""

    t0 = time.perf_counter()
    try:
        perm_list = [parse_permutation(p.strip()) for p in perms.split(",") if p.strip()]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if not perm_list:
        raise click.UsageError("--perms must list at least one permutation")
    n = len(perm_list)
    if method in ("dense", "both") and n > 3:
        raise click.UsageError("dense equivalence is capped at n = 3")
    sigma = sigma_n(perm_list)
    corrected = sigma.permute_per_copy([invert_permutation(p) for p in perm_list])
    structured_exact = corrected.weights == rho_n(n).weights
    checks = [{"name": "structured_weight_equality", "computed": structured_exact,
               "expected": True, "pass": structured_exact}]
    payload = {
        "command": "sigma-equiv",
        "n": n,
        "perms": ["".join(map(str, p)) for p in perm_list],
        "kl_sigma_vs_mixture_bits": _json_num(bell_diagonal_kl(sigma, rho_n(n))),
    }
    if method in ("dense", "both"):
        dense_sigma = to_dense(sigma)
        if dump:
            with open(dump, "w") as fh:
                fh.write(dm_to_json(dense_sigma) + "\n")
        gates = {}
        for j, perm in enumerate(perm_list, start=1):
            pair = local_permutation_search(invert_permutation(perm))
            gates[f"A{j}"] = pair.u_alice
            gates[f"B{j}"] = pair.u_bob
        mapped = apply_local(dense_sigma, gates)
        dist = trace_distance(mapped, to_dense(rho_n(n)))
        checks.append({"name": "dense_trace_distance", "computed": dist,
                       "expected": 0.0, "tolerance": tol, "pass": dist <= tol})
    elif dump:
        raise click.UsageError("--dump needs a dense method")
    passed = all(c["pass"] for c in checks)
    payload["checks"] = checks
    payload["pass"] = passed
    _emit(payload, out, fmt)
    _finish(ctx, passed, t0)


# --- exploration ----------------------------------------------------------------------


@main.group()
def explore():
    """Numerical bounds beyond the closed forms (exit 0; a value below a
    proven floor raises)."""


@explore.command("er")
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--restarts", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=8000, show_default=True,
              help="alternation steps per restart")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def explore_er(ctx, n, restarts, budget, seed, fmt, out):
    """Relative entropy of entanglement from the largest product-state
    overlap (an attained upper bound, never below the floor n-2)."""

    t0 = time.perf_counter()
    report = er_search(n, restarts=restarts, budget=budget, seed=seed)
    payload = {"command": "explore er"}
    payload.update(report.to_dict())
    payload["pass"] = True  # er_search raises on a floor breach
    _emit(payload, out, fmt)
    _finish(ctx, True, t0)


if __name__ == "__main__":
    main()
