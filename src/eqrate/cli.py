"""Command-line interface.

Subcommands cover the full pipeline: build an evaluation game from
preference data, solve it, rate actions, run the clone-injection and
enumeration experiments, and drive the skill-world simulation.  Every
randomized command takes an explicit ``--seed`` (default 0, never
wall-clock), all plot-ready outputs are CSV/JSON, and each run writes a
manifest with input hashes so results can be reproduced bit-exactly.

Game files are JSON.  ``build`` writes a prompt/king/rebel game as its
king tensor alone: ``players``, ``actions``, ``king`` (flat, row-major),
``shape`` and ``clone_sources``.  Every ``--game`` option also reads the
full format of ``games.save_game``, with one flat tensor per player under
``utilities`` and, for a prompt/king/rebel game, ``clone_sources``; the
commands that need a prompt/king/rebel game (``build --game``, ``rate
--method elo``, ``clone-test``) check that its prompt and rebel tensors
are the ones its king tensor defines.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time

import numpy as np

from . import games, kernels, koth, ratings, skillsim, solvers
from .errors import ConvergenceError, IncompleteDataError, ParameterError

CLONE_TEST_METHODS = ("elo", "ne", "cce", "ne-shannon", "cce-shannon")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command, args, inputs, outputs, t0, extra=None):
    manifest = {
        "command": command,
        "args": {k: v for k, v in sorted(args.items()) if k not in ("func",)},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": time.perf_counter() - t0,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _read_game(path) -> tuple[games.Game, list | None]:
    """The game in a game file, and the ``clone_sources`` it records, if any.

    A file with a ``king`` key holds a prompt/king/rebel game as its king
    tensor (see ``_save_koth``).  Any other file holds every player's
    tensor in the ``games.save_game`` format, with or without
    ``clone_sources``.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    sources = data.get("clone_sources")
    if "king" not in data:
        return games.game_from_dict(data), sources
    u_k = np.asarray(data["king"], dtype=float).reshape(data["shape"])
    prompts, models = data["actions"][:2]
    kg = koth._koth_game(u_k, prompts, models, sources or [None] * len(prompts))
    return kg.game, sources


def _load_koth(path) -> koth.KOTHGame:
    game, sources = _read_game(path)
    # every KOTH operation rederives the prompt and rebel tensors from the
    # king's, so a file whose other tensors differ is not this game
    if not (
        game.num_players == 3
        and game.action_labels[1] == game.action_labels[2]
        and all(map(np.array_equal, game.utilities, koth._koth_tensors(game.utilities[1])))
    ):
        raise ParameterError("expected a prompt/king/rebel game")
    return koth.KOTHGame(game=game, clone_sources=tuple(sources or [None] * game.shape[0]))


def _save_koth(kg: koth.KOTHGame, path) -> None:
    """Write a KOTH game as its king tensor.

    The file holds ``players``, ``actions`` (prompts, models, models),
    ``king`` (the king tensor, flat and row-major), ``shape`` and
    ``clone_sources``; the prompt and rebel tensors follow from the king's
    (``koth._koth_tensors``), so a third of the floats of a full game file
    are stored.  ``_read_game`` reads it back, and reads full game files
    too.
    """
    data = {
        "players": list(kg.game.players),
        "actions": [list(lbls) for lbls in kg.game.action_labels],
        "king": kg.u_king.ravel().tolist(),
        "shape": list(kg.game.shape),
        "clone_sources": list(kg.clone_sources),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))


def _targets_for(game: games.Game, entropy: str, variance: float, mode: str):
    if entropy == "affinity":
        return kernels.affinity_targets(game, variance=variance, mode=mode)
    if entropy == "shannon":
        return solvers.uniform_targets(game)
    raise ParameterError(f"unknown entropy {entropy!r}")


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    if args.prefs:
        records = koth.read_preference_csv(args.prefs)
        t_read = time.perf_counter()
        kg = koth.build_koth(records)
        samples, source = len(records), args.prefs
    else:
        kg = _load_koth(args.game)
        t_read = time.perf_counter()
        samples, source = None, args.game
    t_tab = time.perf_counter()
    report = {
        "prompts": len(kg.prompts),
        "models": len(kg.models),
        "cells": len(kg.prompts) * len(kg.models) * (len(kg.models) - 1),
        "samples": samples,
    }
    _save_koth(kg, args.out)
    report_path = str(args.out) + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    timings = {"read_s": t_read - t0, "tabulate_s": t_tab - t_read, "write_s": time.perf_counter() - t_tab}
    _write_manifest(
        str(args.out) + ".manifest.json",
        "build",
        vars(args),
        [source],
        [args.out, report_path],
        t0,
        extra={"timings": timings},
    )
    return 0


def _solve(game, method, targets, epsilon, max_steps):
    if method == "ne":
        kwargs = {"targets": targets}
        if epsilon is not None:
            kwargs["epsilon_ne"] = epsilon
        if max_steps is not None:
            kwargs["max_steps"] = max_steps
        return solvers.solve_lle(game, solvers.QREConfig(**kwargs))
    kwargs = {"target_log_joint": solvers.target_log_joint(targets)}
    if epsilon is not None:
        kwargs["epsilon_cce"] = epsilon
    if max_steps is not None:
        kwargs["max_steps"] = max_steps
    return solvers.solve_mre_cce(game, solvers.CCEConfig(**kwargs))


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    game, _ = _read_game(args.game)
    t_load = time.perf_counter()
    targets = _targets_for(game, args.entropy, args.variance, args.mode)
    t_targets = time.perf_counter()
    result = _solve(game, args.method, targets, args.epsilon, args.max_steps)
    result.seed = args.seed
    t_solve = time.perf_counter()
    result.save(args.out)
    timings = {
        "load_s": t_load - t0,
        "targets_s": t_targets - t_load,
        "solve_s": t_solve - t_targets,
        "write_s": time.perf_counter() - t_solve,
    }
    _write_manifest(
        str(args.out) + ".manifest.json",
        "solve",
        vars(args),
        [args.game],
        [args.out],
        t0,
        extra={
            "exploitability": result.exploitability,
            "steps": result.trace[-1].step,
            "termination": result.termination,
            "stages": len({r.tau for r in result.trace if r.tau is not None}),
            "timings": timings,
        },
    )
    return 0


def _elo_report(kg: koth.KOTHGame) -> ratings.RatingReport:
    """The Elo baseline: the king's models rated from prompt-averaged wins."""
    r = ratings.elo_ratings(koth.prompt_average_win_matrix(kg))
    return ratings.RatingReport(
        players=("king",),
        labels=(kg.models,),
        ratings=(r,),
        masses=None,
        ranks=(ratings.ranks_with_ties(r, kg.models),),
        method="elo",
        tie_tolerance=ratings.DEFAULT_TIE_TOL,
    )


def cmd_rate(args) -> int:
    t0 = time.perf_counter()
    inputs = [args.game]
    if args.method == "elo":
        report = _elo_report(_load_koth(args.game))
    else:
        game, _ = _read_game(args.game)
        with open(args.equilibrium, encoding="utf-8") as fh:
            eq = json.load(fh)
        inputs.append(args.equilibrium)
        profile = solvers.profile_from_dict(eq)
        report = ratings.rate(game, profile, eq.get("method", "eq").upper())
    report.save_json(args.out)
    csv_path = str(args.out) + ".csv"
    report.save_csv(csv_path)
    _write_manifest(
        str(args.out) + ".manifest.json", "rate", vars(args), inputs, [args.out, csv_path], t0
    )
    return 0


def _method_report(kg: koth.KOTHGame, method: str) -> ratings.RatingReport:
    """The rating report of one clone-test method tag."""
    if method == "elo":
        return _elo_report(kg)
    entropy = "shannon" if method.endswith("shannon") else "affinity"
    base = "ne" if method.startswith("ne") else "cce"
    targets = _targets_for(kg.game, entropy, kernels.DEFAULT_VARIANCE, "joint")
    result = _solve(kg.game, base, targets, None, None)
    return ratings.rate(kg.game, result.profile, method.upper())


def cmd_clone_test(args) -> int:
    t0 = time.perf_counter()
    kg = _load_koth(args.game)
    if args.target not in kg.models:
        raise ParameterError(f"target model {args.target!r} not in game")
    counts = [int(c) for c in args.counts.split(",")]
    outputs = []
    summary = {"target": args.target, "lambda": args.lam, "noise": args.noise, "rows": []}
    for count in counts:
        if count > 0:
            idx = koth.adversarial_prompt_sampler(
                kg, args.target, lam=args.lam, count=count, seed=args.seed
            )
            injected = koth.inject_clones(kg, idx, noise_halfwidth=args.noise, seed=args.seed)
        else:
            injected = kg
        for method in CLONE_TEST_METHODS:
            report = _method_report(injected, method)
            order = report.ranking(report.player_index("king"))
            path = f"{args.out_dir}/ranking_{method}_{count}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["player", "label", "rating", "rank", "clone_source"])
                for i, player in enumerate(report.players):
                    for j, lbl in enumerate(report.labels[i]):
                        source = ""
                        if player == "prompt" and injected.clone_sources[j] is not None:
                            source = injected.prompts[injected.clone_sources[j]]
                        rating, rank = float(report.ratings[i][j]), int(report.ranks[i][j])
                        writer.writerow([player, lbl, repr(rating), rank, source])
            outputs.append(path)
            summary["rows"].append(
                {
                    "count": count,
                    "method": method,
                    "ranking": order,
                    "target_rank": order.index(args.target) + 1,
                }
            )
    summary_path = f"{args.out_dir}/clone_test_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    outputs.append(summary_path)
    _write_manifest(
        f"{args.out_dir}/clone_test.manifest.json",
        "clone-test",
        vars(args),
        [args.game],
        outputs,
        t0,
    )
    return 0


def cmd_decompose(args) -> int:
    t0 = time.perf_counter()
    game, _ = _read_game(args.game)
    with open(args.equilibrium, encoding="utf-8") as fh:
        eq = json.load(fh)
    profile = solvers.profile_from_dict(eq)
    grouping = None
    inputs = [args.game, args.equilibrium]
    if args.families:
        with open(args.families, encoding="utf-8") as fh:
            grouping = json.load(fh)
        inputs.append(args.families)
    action = game.action_labels[args.player].index(args.action)
    table = ratings.decompose(
        game, profile, args.player, action, args.co_player, grouping
    )
    table.save_csv(args.out)
    _write_manifest(
        str(args.out) + ".manifest.json", "decompose", vars(args), inputs, [args.out], t0
    )
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    methods = raw.pop("methods", None) or [raw.get("rating_method", "elo")]
    raw.pop("rating_method", None)
    known = {f.name for f in dataclasses.fields(skillsim.SimConfig)}
    for key in raw:
        if key not in known:
            raise ParameterError(f"unknown simulate config key {key!r}")
    outputs = []
    for method in methods:
        config = skillsim.SimConfig(rating_method=method, **raw)
        traj = skillsim.run_simulation(config)
        json_path = f"{args.out_dir}/trajectory_{method}.json"
        traj.save(json_path)
        rows = skillsim.entropy_trace(traj)
        csv_path = f"{args.out_dir}/trajectory_{method}.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["t", "prompts", "models", "H_p", "H_m", "method", "trial", "seed"]
            )
            writer.writeheader()
            writer.writerows(rows)
        outputs += [json_path, csv_path]
    _write_manifest(
        f"{args.out_dir}/simulate.manifest.json",
        "simulate",
        vars(args),
        [args.config],
        outputs,
        t0,
    )
    return 0


def cmd_enumerate(args) -> int:
    t0 = time.perf_counter()
    game, _ = _read_game(args.game)
    enum = solvers.enumerate_nes(
        game, args.count, epsilon=args.epsilon, seed=args.seed
    )
    beliefs = solvers.risk_dominance_beliefs(game, enum.profiles)
    bundle = {
        "requested": enum.requested,
        "complete": enum.complete,
        "min_pairwise_gap": enum.min_pairwise_gap,
        "equilibria": [
            {
                "marginals": [m.tolist() for m in prof.marginals],
                "exploitability": enum.exploitabilities[i],
                "ratings": enum.rating_vectors[i].tolist(),
            }
            for i, prof in enumerate(enum.profiles)
        ],
        "belief_priors": [p.tolist() for p in beliefs.priors],
        "payoff_table": beliefs.payoff_table.tolist(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=2)
    table_path = str(args.out) + ".risk.csv"
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["equilibrium"] + [f"payoff_player_{i}" for i in range(game.num_players)]
        )
        for k, row in enumerate(beliefs.payoff_table):
            writer.writerow([k] + [repr(float(v)) for v in row])
    _write_manifest(
        str(args.out) + ".manifest.json",
        "enumerate",
        vars(args),
        [args.game],
        [args.out, table_path],
        t0,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqrate", description="game-theoretic rating engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a game from preference CSV or game JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prefs", help="preference CSV (prompt_id,model_a,model_b,score)")
    group.add_argument("--game", help="existing game JSON to validate and re-emit")
    p.add_argument("--out", required=True, help="output game JSON path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve a game for an equilibrium")
    p.add_argument("--game", required=True)
    p.add_argument("--method", choices=["ne", "cce"], default="ne")
    p.add_argument("--entropy", choices=["affinity", "shannon"], default="affinity")
    p.add_argument("--variance", type=float, default=kernels.DEFAULT_VARIANCE,
                   help="RBF kernel denominator (2*sigma)^2")
    p.add_argument("--mode", choices=["joint", "factorized"], default="joint",
                   help="dissimilarity closed form")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("rate", help="rate actions against an equilibrium or by Elo")
    p.add_argument("--game", required=True)
    p.add_argument("--equilibrium", help="equilibrium JSON from `solve`")
    p.add_argument("--method", choices=["eq", "elo"], default="eq")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("clone-test", help="clone-invariance experiment")
    p.add_argument("--game", required=True)
    p.add_argument("--target", required=True, help="model whose rank is attacked")
    p.add_argument("--lambda", dest="lam", type=float, default=10.0)
    p.add_argument("--counts", default="0,250,500", help="comma-separated clone counts")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_clone_test)

    p = sub.add_parser("decompose", help="marginal rating contributions")
    p.add_argument("--game", required=True)
    p.add_argument("--equilibrium", required=True)
    p.add_argument("--player", type=int, required=True)
    p.add_argument("--action", required=True, help="label of the rated action")
    p.add_argument("--co-player", dest="co_player", type=int, required=True)
    p.add_argument("--families", help="JSON mapping co-action label -> family")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="skill-world simulation")
    p.add_argument("--config", required=True, help="SimConfig JSON; may list methods")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate", help="enumerate equilibria + risk dominance")
    p.add_argument("--game", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rate" and args.method == "eq" and not args.equilibrium:
        parser.error("rate: --equilibrium is required unless --method elo")
    try:
        return args.func(args)
    except IncompleteDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for key in exc.missing[:20]:
            print(f"  missing: {key}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
