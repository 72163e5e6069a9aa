"""Command-line surface: every verification and simulation as a scriptable
command with machine-readable output.

Exit codes: 0 = all checks pass, 1 = a quantitative check failed,
2 = usage error.  The seeded commands (distill, discriminate, explore er)
echo the seed, 0 by default, and each `checks` entry echoes its tolerance;
the fixed gates of separability, distill --n 1|2 and permutations are not
echoed.  Re-running with the same configuration reproduces stdout byte for
byte (wall time goes to stderr, never into the payload).  Dense payloads
print eigensolver rounding digits, which can move with the BLAS thread
count, so for them this holds at a fixed thread count.  Non-finite values
are serialized as the string "infinity" so payloads remain strict JSON.
"""

from __future__ import annotations

import functools
import json
import math
import time

import click

from .bell import (
    bell_diagonal_kl,
    bell_product_ket,
    check_permutation,
    invert_permutation,
    rho_n,
    sigma_n,
    to_dense,
)
from .entropies import trace_distance
from .locc import discrimination_rate, distill as run_distill
from .measures import (
    distill_trivial,
    er_bound_even,
    er_bound_odd_doubled,
    er_bound_pair,
    er_search,
)
from .permutations import ALL_PERMUTATIONS, _realizations, local_permutation_search
from .states import _dm_json_chunks, apply_local, dm_from_ensemble

DENSE_TOL = 1e-8
STRUCTURED_TOL = 1e-12
SIGMA_TOL = 1e-9

_SEED = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)


def _json_num(x: float):
    if math.isinf(x):
        return "infinity"
    return float(x)


def _check(name: str, computed: float, expected: float, tol: float, **extra) -> dict:
    return {"name": name, "computed": _json_num(computed), "expected": _json_num(expected),
            "tolerance": tol, "pass": abs(computed - expected) <= tol, **extra}


def _reporting(*formats: str):
    """Add `--out` to a command, and `--format` where it has a choice of
    formats (the first is the default; the body then receives `fmt`).  The
    body returns `(payload, text)`: `text` is printed, or the payload as JSON
    when `text` is None, and the payload's "pass" entry sets the exit code
    (0 or 1).  The wall time goes to stderr."""

    def decorate(body):
        @click.option("--out", type=click.Path(), default=None)
        @functools.wraps(body)
        def command(out, **options):
            started = time.perf_counter()
            payload, text = body(**options)
            if text is None:
                text = json.dumps(payload, sort_keys=True) + "\n"
            with click.open_file(out or "-", "w") as fh:
                click.echo(text, nl=False, file=fh)
            click.echo(f"# wall_time_s={time.perf_counter() - started:.3f}", err=True)
            click.get_current_context().exit(0 if payload["pass"] else 1)

        if formats:
            command = click.option("--format", "fmt", type=click.Choice(formats),
                                   default=formats[0])(command)
        return command

    return decorate


class _Toolkit(click.Group):
    """Reports the library's size-cap and range errors, sizes that cannot be
    allocated, and files that cannot be written, as usage errors (exit 2, one
    line) instead of tracebacks."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, MemoryError) as exc:
            # Python's own MemoryError (a tuple of 10^16 items) has no text
            raise click.UsageError(str(exc) or "the requested size cannot be allocated") from exc


@click.group(cls=_Toolkit)
def main():
    """Bell-ensemble verification and LOCC distillation toolkit."""


# --- verify ------------------------------------------------------------------


@main.group()
def verify():
    """Check a closed-form divergence value and exit 0/1."""


def _verify(name: str, size: str, size_help: str, formula: str, closed_form):
    """Make `compute(size, method) -> DivergenceReport` the `verify <name>`
    command, checked against `closed_form(size)`; a report with a halved
    value (the odd chain n = 2m+1) is also checked against n - 2.  `compute`
    calls its bound through this module's global name, so that a tracer
    which rebinds the name sees the call."""

    def decorate(compute):
        @verify.command(name, help=compute.__doc__)
        @click.option(f"--{size}", "k", type=click.IntRange(min=1), required=True,
                      help=size_help)
        @click.option("--method", type=click.Choice(["structured", "dense"]),
                      default="structured")
        @_reporting()
        def command(k, method):
            tol = DENSE_TOL if method == "dense" else STRUCTURED_TOL
            report = compute(k, method)
            payload = {"command": f"verify {name}", size: k}
            checks = [_check("divergence_bits", report.value_bits, closed_form(k), tol,
                             formula=formula)]
            if report.halved_bits is not None:
                payload["n"] = n = 2 * k + 1
                checks.append(_check("halved_bits", report.halved_bits, n - 2, tol,
                                     formula="n-2"))
            payload.update(method=report.method, checks=checks,
                           support_contained=report.support_contained,
                           support_overlap=report.support_overlap,
                           raw_divergence_bits=_json_num(report.raw_divergence_bits))
            payload["pass"] = all(c["pass"] for c in checks)
            return payload, None

        return compute

    return decorate


@_verify("eq5", "m", "block count; value is 2m-2", "2m-2", lambda m: 2 * m - 2)
def verify_eq5(m, method):
    """Even-copy divergence: S over 2m copies against the pairwise product."""
    return er_bound_even(m, method=method)


@_verify("eq10", "m", "odd case n=2m+1; value is 4m-2", "4m-2", lambda m: 4 * m - 2)
def verify_eq10(m, method):
    """Odd-copy doubled divergence: closed form 4m-2, halved per-copy n-2."""
    return er_bound_odd_doubled(m, method=method)


@_verify("er-pair", "n", "copies per factor; value is 2n-4", "2n-4", lambda n: 2 * n - 4)
def verify_er_pair(n, method):
    """Doubled-mixture divergence against the pairwise product: 2n-4."""
    return er_bound_pair(n, method=method)


# --- distill / discriminate ---------------------------------------------------


@main.command("distill")
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--shots", type=click.IntRange(min=1), default=1000, show_default=True,
              help="seeded shots: the CSV rows, whose shot 0 is the JSON transcript; "
                   "the rates are exact from the 16 frame branches")
@_SEED
@_reporting("json", "csv")
def distill_cmd(n, shots, seed, fmt):
    """Distill n copies into n-2 ebits (n >= 3); n in {1,2} reports the
    zero-yield evidence instead."""

    if n in (1, 2):
        if fmt == "csv":
            raise click.UsageError("the zero-yield cases have no per-shot rows; "
                                   "use --format json")
        payload = distill_trivial(n)
        payload["seed"] = seed
        return payload, None
    report = run_distill(n, shots=shots, seed=seed)
    payload = report.to_dict()
    payload["pass"] = report.success_rate == report.min_fidelity == 1.0
    return payload, report.to_csv() if fmt == "csv" else None


@main.command("discriminate")
@click.option("--n", "n", type=click.IntRange(min=2), default=2, show_default=True,
              help="copies; two are consumed")
@click.option("--shots", type=click.IntRange(min=1), default=1000, show_default=True,
              help="echoed, as --seed is; the rate is exact from the 16 frame branches")
@_SEED
@_reporting()
def discriminate_cmd(n, shots, seed):
    """Two-copy Bell discrimination, from the 16 frame branches; must be exact."""

    rate = discrimination_rate(n)
    return {"command": "discriminate", "n": n, "shots": shots, "seed": seed,
            "success_rate": rate, "pass": rate == 1.0}, None


def _dump(path: str, rho) -> None:
    """Write `dm_to_json(rho)` and a newline to `path`, one matrix row at a time."""

    with open(path, "w") as fh:
        fh.writelines(_dm_json_chunks(rho))
        fh.write("\n")


# --- separability evidence -----------------------------------------------------


@main.command("separability")
@click.option("--n", "n", type=click.Choice(["1", "2"]), required=True)
@click.option("--dump", type=click.Path(), default=None,
              help="write the dense state in the JSON matrix format")
@_reporting()
def separability_cmd(n, dump):
    """Checkable separability evidence for the one- and two-copy mixtures."""

    n = int(n)
    payload = distill_trivial(n)
    payload["command"] = "separability"
    if dump:
        _dump(dump, to_dense(rho_n(n)))
    return payload, None


# --- permutations ----------------------------------------------------------------


@main.command("permutations")
@_reporting("table", "json")
def permutations_cmd(fmt):
    """Realize all 24 Bell-basis permutations by local unitary pairs."""

    table = _realizations()  # the actions the table was checked by
    rows = []
    for perm in sorted(ALL_PERMUTATIONS):
        pair, action = table[perm]
        rows.append({
            "perm": "".join(map(str, perm)),
            "realized": action.perm == perm,
            "pair": pair.name,
            "phases": [[round(p.real, 6), round(p.imag, 6)] for p in action.phases],
        })
    payload = {"command": "permutations", "count": len(rows), "rows": rows,
               "pass": all(r["realized"] for r in rows)}
    if fmt == "json":
        return payload, None
    lines = [f"{'perm':<6} {'pair':<14} phases"]
    for r in rows:
        phases = ", ".join(f"{a:+g}{b:+g}i" for a, b in r["phases"])
        lines.append(f"{r['perm']:<6} {r['pair']:<14} {phases}")
    lines.append(f"realized {sum(r['realized'] for r in rows)}/24")
    return payload, "\n".join(lines) + "\n"


# --- sigma equivalence --------------------------------------------------------------


@main.command("sigma-equiv")
@click.option("--perms", required=True,
              help="comma-separated one-line permutations, one per copy, e.g. 2134,1234")
@click.option("--method", type=click.Choice(["structured", "both"]), default="structured",
              help="structured compares the relabelled weights; both also applies "
                   "the table's local unitary pairs to the dense kets")
@click.option("--dump", type=click.Path(), default=None,
              help="write the dense permuted mixture in the JSON matrix format")
@_reporting()
def sigma_equiv_cmd(perms, method, dump):
    """Check that a per-copy permuted mixture maps back to the plain
    mixture: relabelled by each copy's inverse permutation, its Bell weights
    equal the mixture's.  Only --method both uses the local unitary pairs of
    the permutation table, applied to the dense Bell-product kets."""

    perm_list = [check_permutation(p.strip()) for p in perms.split(",")]
    n = len(perm_list)
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
    if method == "both":
        if dump:
            _dump(dump, to_dense(sigma))
        gates = {}
        for j, perm in enumerate(perm_list):
            pair = local_permutation_search(invert_permutation(perm))
            gates.update({2 * j: pair.u_alice, 2 * j + 1: pair.u_bob})
        # gating sigma's four Bell-product kets, not its 4^n x 4^n matrix, is far
        # cheaper and leaves no rounding entries that join the matrix's blocks
        mapped = dm_from_ensemble((w, apply_local(bell_product_ket(s), gates))
                                  for s, w in sorted(sigma.weights.items()))
        dist = trace_distance(mapped, to_dense(rho_n(n)))
        checks.append(_check("dense_trace_distance", dist, 0.0, SIGMA_TOL))
    elif dump:
        raise click.UsageError("--dump needs --method both")
    payload["checks"] = checks
    payload["pass"] = all(c["pass"] for c in checks)
    return payload, None


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
@_SEED
@_reporting()
def explore_er(n, restarts, budget, seed):
    """Relative entropy of entanglement from the largest product-state
    overlap (an attained upper bound, never below the floor n-2)."""

    report = er_search(n, restarts=restarts, budget=budget, seed=seed)
    # er_search raises on a floor breach
    return {"command": "explore er", **report.to_dict(), "pass": True}, None


if __name__ == "__main__":
    main()
