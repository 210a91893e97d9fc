"""End-to-end benchmark of the eqrate rating engine.

Usage, from the root of a checkout:

    python3 bench/run.py --workload arena --seed 1 --seconds 30 --trace 0

One process builds a workload's seeded inputs, then runs its op through
the public API and the ``eqrate.cli.main`` entry point until ``--seconds``
is used up (always at least one op), checks every output, and prints one
JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
the two times among them, ``setup_s`` and ``op_s``, are wall times scaled
to a nominal machine speed by a gauge timed during the ops (see
``gauge.py``), because the host's speed drifts.  With ``--trace 1`` ops
alternate untraced and traced (see ``spans.py``) and the metrics are per
layer, from the traced ops.  The line before it holds run information:
versions, the git SHA, the ``src/`` line count, the unscaled wall times,
stage times and the other numbers that are measured but not gated.
Inputs and outputs go to ``.bench_out/<workload>/``; a traced run writes
its spans there as ``spans.json``.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads: on a 2-core x86 VM,
# repeated solves on 50x8 took 2.68-4.12 s with default threading and
# 2.80-3.22 s pinned
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import importlib.util
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path

import numpy as np

import gauge
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "eqrate").is_dir():
    sys.exit(f"no eqrate sources under {ROOT / 'src'}: run from the root of a checkout")
sys.path.insert(0, str(ROOT / "src"))

from eqrate import cli, games, kernels, koth, ratings, skillsim, solvers  # noqa: E402

SETUP_PROBES = 5
MASS_TOL = 1e-6
CLONES = 120


def _run_cli(argv: list[str], failures: list[str]) -> float:
    t0 = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        failures.append(f"eqrate {argv[0]} exited {code}")
    return seconds


def _check_report(path: Path, failures: list[str]) -> None:
    """Ratings finite; masses, where the method has them, sum to 1."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for table in report["tables"]:
        if not all(math.isfinite(r) for r in table["ratings"]):
            failures.append(f"{path.name}: non-finite rating for {table['player']}")
        masses = [m for m in table["masses"] if m is not None]
        if masses and abs(sum(masses) - 1.0) > MASS_TOL:
            failures.append(f"{path.name}: {table['player']} masses sum to {sum(masses)}")


def prepare_arena(work: Path, seed: int) -> dict:
    csv_path = work / "prefs.csv"
    inputs.write_preference_csv(csv_path, 500, 17, CONTENT_SEED, seed)
    return {"prefs": csv_path}


def arena_op(ctx: dict, out: Path, failures: list[str]) -> dict:
    game, prefs = str(out / "game.json"), str(ctx["prefs"])
    stages = {"build_s": _run_cli(["build", "--prefs", prefs, "--out", game], failures)}
    for method in ("ne", "cce"):
        eq, report = out / f"{method}.json", out / f"{method}_rate.json"
        seconds = _run_cli(["solve", "--game", game, "--method", method, "--out", str(eq)], failures)
        seconds += _run_cli(["rate", "--game", game, "--equilibrium", str(eq), "--out", str(report)], failures)
        stages[f"{method}_rate_s"] = seconds
        if not failures:
            _check_report(report, failures)
    elo = out / "elo.json"
    stages["elo_s"] = _run_cli(["rate", "--game", game, "--method", "elo", "--out", str(elo)], failures)
    if not failures:
        _check_report(elo, failures)
    return stages


def prepare_clone_attack(work: Path, seed: int) -> dict:
    path = work / "base.json"
    inputs.write_koth_game(path, 60, 8, CONTENT_SEED, seed)
    game = games.load_game(path)
    kg = koth.KOTHGame(game=game, clone_sources=(None,) * game.shape[0])
    elo = ratings.elo_ratings(koth.prompt_average_win_matrix(kg))
    order = sorted(kg.models, key=lambda m: (-elo[kg.models.index(m)], m))
    return {"game": path, "target": order[3], "models": kg.models}


def _king_ratings(path: Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {r["label"]: float(r["rating"]) for r in csv.DictReader(fh) if r["player"] == "king"}


def clone_attack_op(ctx: dict, out: Path, failures: list[str]) -> dict:
    # the sampler seed is part of the instance: another one clones other rows
    argv = [
        "clone-test", "--game", str(ctx["game"]), "--target", ctx["target"],
        "--counts", f"0,{CLONES}", "--lambda", "10", "--seed", "0", "--out-dir", str(out),
    ]  # fmt: skip
    measured = {"clone_test_s": _run_cli(argv, failures)}
    if failures:
        return measured
    with open(out / "clone_test_summary.json", encoding="utf-8") as fh:
        rank = {(r["method"], r["count"]): r["target_rank"] for r in json.load(fh)["rows"]}
    # the paper's claim: clones cannot move a model's equilibrium rank
    if rank["ne", 0] != rank["ne", CLONES]:
        failures.append(f"NE target rank moved {rank['ne', 0]} -> {rank['ne', CLONES]}")
    measured.update({f"elo_target_rank_at_{c}": rank["elo", c] for c in (0, CLONES)})
    for method in cli.CLONE_TEST_METHODS:
        before = _king_ratings(out / f"ranking_{method}_0.csv")
        after = _king_ratings(out / f"ranking_{method}_{CLONES}.csv")
        if not all(math.isfinite(v) for v in [*before.values(), *after.values()]):
            failures.append(f"non-finite {method} rating")
        elif method in ("ne", "cce"):
            measured[f"{method}_clone_shift"] = max(abs(before[m] - after[m]) for m in ctx["models"])
    return measured


def prepare_skillworld(work: Path, seed: int) -> dict:
    # a SimConfig carries no labels, so there is nothing for the seed to vary
    return {"config": skillsim.SimConfig(rating_method="ne", trials=1, iterations=5, seed=CONTENT_SEED)}


def skillworld_op(ctx: dict, out: Path, failures: list[str]) -> dict:
    t0 = time.perf_counter()
    trajectory = skillsim.run_simulation(ctx["config"])
    measured = {"sim_trial_s": time.perf_counter() - t0}
    for trial in trajectory.trials:
        if trial.aborted:
            failures.append(f"trial {trial.trial} aborted: {trial.abort_info}")
        for snap in trial.snapshots:
            if not (math.isfinite(snap["H_p"]) and math.isfinite(snap["H_m"])):
                failures.append(f"non-finite entropy at t={snap['t']}")
    return measured


# ---------------------------------------------------------------------------
# Workloads.  Each is one fixed instance, drawn from CONTENT_SEED; the run
# seed only relabels and reorders it.  Other content seeds of the same
# generator, measured on a 2-core x86 VM with one BLAS thread: the CCE took
# 38-7,524 Adam steps (0.3-43 s) on seven 500x17 arenas and 12-15,761 on
# eight 60x8 base games, one 60x8 clone test raised ConvergenceError after
# 200,000 LLE steps, and ten skill-world trials took 6.8-29 s (12-23
# solves, 23k-123k LLE steps).  A seed that redrew the instance would
# spread every time metric past the 0.25 bound.  Content seed 0 gives the
# solver load each workload is meant to carry; the step counts are exact
# and repeat on every run.
#
# Left out, to be added once the program can run them here:
# - enumerate: asked for 3 equilibria of a 12x4 game from this generator,
#   enumerate_nes took 54 s with default settings and 24 s with
#   max_steps=5000, and found 1 both times.  Its replica loop is what
#   batching the LLE would speed up.
# - the skill-world cce arm: SimConfig(rating_method="cce") raises
#   TypeError, because the QRE-only solver overrides reach CCEConfig.

CONTENT_SEED = 0

WORKLOADS = {
    # One arena-hard scale game, 500 prompts x 17 models, through the CLI:
    # build --prefs, solve ne + rate, solve cce + rate, rate elo.  Stresses
    # the LLE per-step cost, set by the P*M^2 contraction (one solve, 22,750
    # steps, 0.75-0.9 ms each on a 2-core x86 VM), preference tabulation
    # (136,000 records), and a CCE on a large joint that needs few steps
    # (182).  A kernel or memory-layout change shows here.
    "arena": (prepare_arena, arena_op),
    # clone-test on a 60x8 game with 0 and 120 adversarial clones of the
    # 4th model by Elo, all five methods: the paper's invariance check.
    # Stresses many mid-size solves on games full of duplicate rows: four
    # LLE solves of 22,750 steps each, and four CCE solves of 12,139 Adam
    # steps in all (5,172 twice on the 60x8 game, 818 and 977 with the
    # clones) against 182 on arena, so a CCE change shows here and stays
    # quiet on arena.
    "clone_attack": (prepare_clone_attack, clone_attack_op),
    # One NE-arm skill-world trial, 5 iterations, other settings default.
    # Stresses per-call and per-step Python overhead: 21 LLE solves, 54,960
    # steps in all, on small games (about 75x7 and 15x15) that change every
    # call.  Batching or fewer steps shows here, a contraction-only change not.
    "skillworld": (prepare_skillworld, skillworld_op),
}


# ---------------------------------------------------------------------------
# Spans.  Every op wraps the two solver entry points, to check each
# equilibrium they return (one extra Python call per solve); a traced op
# also wraps every layer below at the attribute its callers look up.


def _describe_solve(args, kwargs, outcome) -> dict:
    game = args[0] if args else kwargs["game"]
    if isinstance(outcome, Exception):  # a ConvergenceError carries the trace so far
        trace, fields = getattr(outcome, "trace", None) or [], {}
    else:
        trace = outcome.trace
        profile = outcome.profile
        if isinstance(profile, games.JointDistribution):
            mass_err = abs(float(profile.joint.sum()) - 1.0)
        else:
            mass_err = max(abs(float(m.sum()) - 1.0) for m in profile.marginals)
        fields = {
            "converged": bool(outcome.converged),
            "exploitability": float(outcome.exploitability),
            "mass_err": mass_err,
        }
    return {
        **fields,
        # the third parameter of both solvers is a starting point
        "warm_start": (args[2:3] or [kwargs.get("init_logits", kwargs.get("init_theta"))])[0] is not None,
        "steps": trace[-1].step if trace else 0,
        "stages": len({r.tau for r in trace if r.tau is not None}),
        "shape": list(game.shape),
    }


def _describe_build(args, kwargs, outcome) -> dict:
    return {"records": len(args[0] if args else kwargs["records"])}


def _patch(tracer: spans.Tracer, traced: bool) -> None:
    tracer.patch(solvers, "solve_lle", "solvers.lle", _describe_solve)
    tracer.patch(solvers, "solve_mre_cce", "solvers.cce", _describe_solve)
    if not traced:
        return
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(skillsim, "run_simulation", "skillsim.run_simulation")
    tracer.patch(koth, "read_preference_csv", "koth.read_csv")
    tracer.patch(koth, "build_koth", "koth.build", _describe_build)
    tracer.patch(koth, "adversarial_prompt_sampler", "koth.clone_inject")
    tracer.patch(koth, "inject_clones", "koth.clone_inject")
    # skillsim imports affinity_targets and elo_ratings by name, cli reaches
    # them through their modules: wrap both attributes
    tracer.patch(kernels, "affinity_targets", "kernels.targets")
    tracer.patch(skillsim, "affinity_targets", "kernels.targets")
    tracer.patch(ratings, "rate", "ratings.rate")
    tracer.patch(ratings, "elo_ratings", "ratings.elo")
    tracer.patch(skillsim, "elo_ratings", "ratings.elo")


def _check_solves(op_spans: list[dict], failures: list[str]) -> None:
    for s in op_spans:
        if s["name"] not in ("solvers.lle", "solvers.cce"):
            continue
        if "error" in s:
            # skillsim retries a failed LLE warm start from scratch, and rates
            # with the unconverged iterate when that raises too: only the
            # warm start may raise without failing the op
            if not (s["name"] == "solvers.lle" and s["warm_start"]):
                failures.append(f"{s['name']} raised {s['error']} after {s['steps']} steps")
            continue
        if not s["converged"] or not math.isfinite(s["exploitability"]):
            failures.append(f"{s['name']} returned unconverged, exploitability {s['exploitability']}")
        if s["mass_err"] > MASS_TOL:
            failures.append(f"{s['name']} masses off by {s['mass_err']:.3g}")


def run_op(op_fn: Callable, ctx: dict, work: Path, index: int, traced: bool) -> dict:
    out = work / f"op{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    failures: list[str] = []
    measured: dict = {}
    # the gauge's signal would land inside the spans of a traced op
    speed = None if traced else gauge.Gauge()
    with spans.Tracer() as tracer, speed or contextlib.nullcontext():
        tracer.op = index
        _patch(tracer, traced)
        t0 = time.perf_counter()
        try:
            measured = op_fn(ctx, out, failures)
        except Exception:  # an op that raises is counted as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            failures.append("op raised")
        seconds = time.perf_counter() - t0
    reference_s = None
    if speed is not None:
        seconds -= speed.overhead
        reference_s = speed.reference_s()
    _check_solves(tracer.spans, failures)
    shutil.rmtree(out, ignore_errors=True)
    for msg in failures:
        print(f"op {index}: check failed: {msg}", file=sys.stderr)
    cce = [s["exploitability"] for s in tracer.spans if s["name"] == "solvers.cce" and "error" not in s]
    if cce:
        measured["cce_exploitability"] = _median(cce)
    return {
        "seconds": seconds,
        "reference_s": reference_s,
        "traced": traced,
        "failures": failures,
        "spans": tracer.spans,
        "measured": measured,
    }


# ---------------------------------------------------------------------------
# Metrics


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def layer_metrics(op: dict) -> dict:
    """Per-layer numbers of one traced op."""
    sp = op["spans"]

    def named(name):
        return [s for s in sp if s["name"] == name]

    def busy(name):
        return sum(spans.duration(s) for s in named(name))

    lle, cce = named("solvers.lle"), named("solvers.cce")
    lle_s, cce_s = busy("solvers.lle"), busy("solvers.cce")
    lle_steps = sum(s["steps"] for s in lle)
    cce_steps = sum(s["steps"] for s in cce)
    # the LLE step reads and writes the three P x M x M tensors twice
    lle_bytes = sum(6 * s["shape"][0] * s["shape"][1] * s["shape"][2] * 8 * s["steps"] for s in lle)
    return {
        "koth.read_csv_s": busy("koth.read_csv"),
        "koth.build_s": busy("koth.build"),
        "koth.records": sum(s["records"] for s in named("koth.build")),
        "koth.clone_inject_s": busy("koth.clone_inject"),
        "kernels.targets_s": busy("kernels.targets"),
        "kernels.targets_calls": len(named("kernels.targets")),
        "solvers.lle_s": lle_s,
        "solvers.lle_calls": len(lle),
        "solvers.lle_steps": lle_steps,
        "solvers.lle_stages": sum(s["stages"] for s in lle),
        "solvers.lle_ms_per_step": 1e3 * lle_s / lle_steps if lle_steps else 0.0,
        "solvers.lle_errors": sum("error" in s for s in lle) / len(lle) if lle else 0.0,
        "solvers.lle_gbps_computed": lle_bytes / 1e9 / lle_s if lle_s else 0.0,
        "solvers.cce_s": cce_s,
        "solvers.cce_calls": len(cce),
        "solvers.cce_steps": cce_steps,
        "solvers.cce_ms_per_step": 1e3 * cce_s / cce_steps if cce_steps else 0.0,
        "solvers.cce_exploitability": op["measured"].get("cce_exploitability", 0.0),
        "solvers.ne_clone_shift": op["measured"].get("ne_clone_shift", 0.0),
        "solvers.cce_clone_shift": op["measured"].get("cce_clone_shift", 0.0),
        "ratings.rate_s": busy("ratings.rate"),
        "ratings.elo_s": busy("ratings.elo"),
        "cli.self_s": sum(spans.self_time(s, sp) for s in named("cli.main")),
        "skillsim.self_s": sum(spans.self_time(s, sp) for s in named("skillsim.run_simulation")),
    }


# ---------------------------------------------------------------------------
# Set-up and run information


def warm_up(work: Path) -> None:
    """A tiny pass through build, both solvers and both raters, so lazy
    imports and first-call costs are paid before any op is timed."""
    work.mkdir(parents=True, exist_ok=True)
    prefs, game = str(work / "prefs.csv"), str(work / "game.json")
    inputs.write_preference_csv(prefs, 4, 3, 0, 0)
    cli.main(["build", "--prefs", prefs, "--out", game])
    for method in ("ne", "cce"):
        eq = str(work / f"{method}.json")
        cli.main(["solve", "--game", game, "--method", method, "--epsilon", "1", "--out", eq])
        cli.main(["rate", "--game", game, "--equilibrium", eq, "--out", str(work / f"{method}_rate.json")])
    cli.main(["rate", "--game", game, "--method", "elo", "--out", str(work / "elo.json")])


def measure_setup(work: Path) -> float:
    """Median wall time of fresh interpreters that import the CLI and warm up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls and rounds the wait up to 50 ms
        subprocess.run([sys.executable, __file__, "--probe", str(work / "probe")], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() or None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": sha,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        warm_up(Path(args.probe))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    prepare, op_fn = WORKLOADS[args.workload]
    setup_wall_s = None if args.trace else measure_setup(work)
    ctx = prepare(work, args.seed)
    warm_up(work / "warm")

    ops: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_op(op_fn, ctx, work, len(ops), traced))
        typical = _median(op["seconds"] for op in ops)
        if (not args.trace or len(ops) >= 2) and time.perf_counter() - start + typical > args.seconds:
            break

    failed = sum(1 for op in ops if op["failures"])
    plain = [op for op in ops if not op["traced"]]
    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        per_op = [layer_metrics(op) for op in traced_ops]
        values = {k: _median(m[k] for m in per_op) for k in per_op[0]}
        overhead = _median(op["seconds"] for op in traced_ops) / _median(op["seconds"] for op in plain) - 1.0
        values["trace_overhead_frac"] = overhead
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump([{k: op[k] for k in ("seconds", "traced", "spans")} for op in ops], fh, default=str)
    else:
        ne = [
            s["exploitability"]
            for op in plain
            for s in op["spans"]
            if s["name"] == "solvers.lle" and "error" not in s
        ]
        # set-up is timed in child processes, so it is scaled by the speed
        # the gauge saw during the ops, some seconds later
        reference_s = _median(op["reference_s"] for op in plain)
        values = {
            "setup_s": gauge.at_nominal_speed(setup_wall_s, reference_s),
            "op_s": _median(gauge.at_nominal_speed(op["seconds"], op["reference_s"]) for op in plain),
            "ne_exploitability": _median(ne),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (len(ops) - failed) / len(ops),
        }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    names = sorted({k for op in plain for k in op["measured"]})
    info = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "content_seed": CONTENT_SEED,
        "setup_wall_s": setup_wall_s,
        "op_wall_s": _median(op["seconds"] for op in plain),
        "reference_ms": _median(1e3 * op["reference_s"] for op in plain),
        "op_seconds": [op["seconds"] for op in ops],
        # measured but not gated: stage wall times in s (the gauge's
        # sampling, about 1%, included), exploitabilities and clone shifts
        # in payoff, Elo target ranks
        "measured": {k: _median(op["measured"][k] for op in plain if k in op["measured"]) for k in names},
        "failures": [f for op in ops for f in op["failures"]],
        **run_info(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
