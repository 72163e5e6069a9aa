"""belldistill benchmark launcher.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Each pass over a workload's questions is one fresh
process (perfbench/workloads.py), so one-time caches such as the BFS
`permutation_table` are paid once per pass, as a CLI user pays them once per
invocation.  Passes repeat until `--seconds` have been spent (at least one).

With `--trace 0` the end-to-end metrics come from untraced passes.  With
`--trace 1` untraced and traced passes alternate; the per-layer metrics come
from the traced ones, whose spans are written to perfbench/out/, and every
question's output must be byte-identical between the two.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Lines before it describe the
environment and print every end-to-end metric by name, with its unit, as
median [q1, q3] over the run's passes and the pass count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1  # <= nproc; one thread keeps eigensolve times steady on a shared box
SETUP_REPS = 11
IMPORT_SNIPPET = "import belldistill, belldistill.cli"

# Per-layer metrics from span aggregates: name -> (unit, span name, field).
# "self_s" is span time minus child spans; "first_s" is the first call's
# inclusive time (the cold BFS).
LAYER_METRICS = {
    "states.density_init_calls": ("count", "states.density_init", "calls"),
    "states.density_init_s": ("s", "states.density_init", "self_s"),
    "states.ket_init_calls": ("count", "states.ket_init", "calls"),
    "states.ket_init_s": ("s", "states.ket_init", "self_s"),
    "states.apply_local_calls": ("count", "states.apply_local", "calls"),
    "states.apply_local_s": ("s", "states.apply_local", "self_s"),
    "states.dm_from_ensemble_s": ("s", "states.dm_from_ensemble", "self_s"),
    "states.reorder_s": ("s", "states.reorder", "self_s"),
    "states.partial_trace_s": ("s", "states.partial_trace", "self_s"),
    "linalg.eig_calls": ("count", "linalg.eig", "calls"),
    "linalg.eig_s": ("s", "linalg.eig", "self_s"),
    "linalg.eig_max_dim": ("count", "linalg.eig", "max_size"),
    "linalg.eig_dim_cubed_sum": ("count", "linalg.eig", "size_cubed_sum"),
    "entropies.herm_eig_calls": ("count", "entropies.herm_eig", "calls"),
    "entropies.herm_eig_s": ("s", "entropies.herm_eig", "self_s"),
    "entropies.relative_entropy_s": ("s", "entropies.relative_entropy", "self_s"),
    "entropies.von_neumann_entropy_s": ("s", "entropies.von_neumann_entropy", "self_s"),
    "entropies.trace_distance_s": ("s", "entropies.trace_distance", "self_s"),
    "bell.to_dense_s": ("s", "bell.to_dense", "self_s"),
    "bell.state_init_calls": ("count", "bell.state_init", "calls"),
    "bell.strings_validated": ("count", "bell.state_init", "size_sum"),
    "bell.state_init_s": ("s", "bell.state_init", "self_s"),
    "bell.rho2_power_s": ("s", "bell.rho2_power", "self_s"),
    "bell.kl_s": ("s", "bell.kl", "self_s"),
    "bell.tensor_s": ("s", "bell.tensor", "self_s"),
    "bell.json_s": ("s", "bell.json", "self_s"),
    "measures.pairwise_separable_s": ("s", "measures.pairwise_separable", "self_s"),
    "measures.er_search_s": ("s", "measures.er_search", "self_s"),
    "measures.divergence_dense_s": ("s", "measures.divergence_dense", "self_s"),
    "measures.divergence_structured_s": ("s", "measures.divergence_structured", "self_s"),
    "measures.ppt_s": ("s", "measures.ppt", "self_s"),
    "locc.measure_local_calls": ("count", "locc.measure_local", "calls"),
    "locc.measure_local_s": ("s", "locc.measure_local", "self_s"),
    "locc.discriminate_s": ("s", "locc.discriminate", "self_s"),
    "locc.rng_init_calls": ("count", "locc.rng_init", "calls"),
    "locc.rng_init_s": ("s", "locc.rng_init", "self_s"),
    "locc.csv_s": ("s", "locc.csv", "self_s"),
    "locc.exact_branches_s": ("s", "locc.exact_branches", "self_s"),
    "permutations.table_cold_s": ("s", "permutations.table", "first_s"),
    "permutations.action_calls": ("count", "permutations.action", "calls"),
}
# Per-layer metrics computed from question results and span aggregates.
DERIVED_METRICS = {
    "locc.shots": "count",
    "locc.shot_us": "us",
    "measures.er_evaluations": "count",
    "measures.er_eval_us": "us",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "frac",
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# End-to-end figures that are zero on some workload, so they cannot be
# end-to-end metrics of every workload: printed with the others, and reported
# among the per-layer metrics (from the untraced passes) by traced runs.
WORKLOAD_FIGURES = {"shots_per_s": "1/s", "er_bound_bits": "bits", "failed_frac": "frac"}
QUESTIONS = [q.name for w in WORKLOADS for q in build(w, 0)]


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    units.update({f"cli.{q}_s": "s" for q in QUESTIONS})
    units.update(DERIVED_METRICS)
    units.update(WORKLOAD_FIGURES)
    return units


def pinned_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def timed_setup(env) -> float:
    """Seconds from launching a fresh interpreter until belldistill and
    belldistill.cli are imported and the interpreter has exited."""

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, check=True,
                   cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - start


def one_pass(env, workload, seed, index, size, spans_path=None) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index), "--size", size]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, env=env, cwd=HERE, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"{workload} pass exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_figures(p: dict) -> dict:
    """End-to-end figures of one pass, including those of single workloads."""

    qs = p["questions"]
    shots = sum(q["shots"] for q in qs)
    fig = {"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
           "failed_frac": sum(not q["ok"] for q in qs) / len(qs)}
    if shots:
        fig["shots_per_s"] = shots / sum(q["seconds"] for q in qs if q["shots"])
    er3 = [q["er_bits"] for q in qs if q["name"] == "er_n3" and "er_bits" in q]
    if er3:
        fig["er_bound_bits"] = er3[0]
    return fig


def layer_figures(p: dict) -> dict:
    layers = p["layers"]
    fig = {}
    for name, (_unit, span, field) in LAYER_METRICS.items():
        fig[name] = layers.get(span, {}).get(field, 0)
    for q in QUESTIONS:
        fig[f"cli.{q}_s"] = layers.get(f"cli.{q}", {}).get("incl_s", 0.0)
    qs = p["questions"]
    shots = sum(q["shots"] for q in qs)
    shot_s = sum(layers[f"cli.{q['name']}"]["incl_s"] for q in qs if q["shots"])
    fig["locc.shots"] = shots
    fig["locc.shot_us"] = 1e6 * shot_s / shots if shots else 0.0
    evals = sum(q.get("er_evaluations", 0) for q in qs)
    fig["measures.er_evaluations"] = evals
    er_s = layers.get("measures.er_search", {}).get("incl_s", 0.0)
    fig["measures.er_eval_us"] = 1e6 * er_s / evals if evals else 0.0
    fig["cli.stdout_bytes"] = sum(q["stdout_bytes"] for q in qs)
    return fig


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="belldistill benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke sizes are for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "belldistill" / "__init__.py").is_file():
        return fail(f"no belldistill sources under {ROOT / 'src'}")
    env = pinned_env()
    try:
        setups = [timed_setup(env) for _ in range(SETUP_REPS)]
    except subprocess.CalledProcessError as exc:
        return fail(f"importing belldistill failed: {exc.stderr.decode().strip()[-300:]}")

    plain, traced = [], []
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    started = time.perf_counter()
    try:
        while True:
            index = len(plain)
            plain.append(one_pass(env, args.workload, args.seed, index, args.size))
            if args.trace:
                traced.append(one_pass(env, args.workload, args.seed, index, args.size,
                                       spans_path))
            if time.perf_counter() - started >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    # correctness: every failed question is counted; a traced output that
    # differs from the untraced output of the same inputs makes the run incorrect
    passes = plain + traced
    attempted = sum(len(p["questions"]) for p in passes)
    failed = sum(not q["ok"] for p in passes for q in p["questions"])
    correct = True
    for untraced, with_spans in zip(plain, traced):
        for a, b in zip(untraced["questions"], with_spans["questions"]):
            if (a["ok"], a["stdout_sha256"]) != (b["ok"], b["stdout_sha256"]):
                correct = False
                print(f"# output differs with tracing: {a['name']}")
    reasons = sorted({f"{q['name']}: {q['reason']}" for p in passes for q in p["questions"]
                      if not q["ok"]})

    env_info = dict(plain[0]["env"], nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
                    git_commit=git_commit(), src_lines=src_lines(), seed=args.seed,
                    workload=args.workload, passes=len(plain), traced_passes=len(traced))
    print("# env " + json.dumps(env_info, sort_keys=True))
    for reason in reasons:
        print(f"# failed {reason}")

    figures = [pass_figures(p) for p in plain]
    summary = {"setup_s": quartiles(setups)}
    units = dict(END_TO_END, **WORKLOAD_FIGURES)
    for name in units:
        values = [f[name] for f in figures if name in f]
        if values:
            summary[name] = quartiles(values)
    for name, (q1, med, q3) in summary.items():
        count = SETUP_REPS if name == "setup_s" else len(figures)
        print(f"# {name} = {med:.6g} {units[name]}  [q1 {q1:.6g}, q3 {q3:.6g}, n = {count}]")

    if args.trace:
        layer_units = per_layer_units()
        per_pass = [layer_figures(p) for p in traced]
        metrics = {name: {"value": statistics.median(f[name] for f in per_pass), "unit": unit}
                   for name, unit in layer_units.items() if name in per_pass[0]}
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        for name, unit in WORKLOAD_FIGURES.items():
            metrics[name] = {"value": summary[name][1] if name in summary else 0.0, "unit": unit}
    else:
        metrics = {name: {"value": summary[name][1], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
