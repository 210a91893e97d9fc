"""Command-line interface.

Subcommands cover the full pipeline: build an evaluation game from
preference data, solve it, rate actions, run the clone-injection and
enumeration experiments, and drive the skill-world simulation.  Every
randomized command takes an explicit ``--seed`` (default 0, never
wall-clock) and all plot-ready outputs are CSV/JSON.  Each ``cmd_*``
returns the files it read, the files it wrote and any more manifest
fields, and ``main`` writes the manifest of each command that succeeds,
with input hashes so results can be reproduced bit-exactly.  Each
clone-test ``ranking_<method>_<count>.csv`` is in ``rate``'s CSV format;
a clone's label is ``<source>__clone<k>``.  ``solve`` is deterministic;
its manifest adds ``stages``, the distinct temperatures of the trace (for
an NE, the points its arclength trace accepted, the one at the terminal
temperature included), and ``restarts``: CCE L-BFGS-B resumes, 0 for an
NE.  A CCE's manifest also gives ``newton_steps``, the steps of its
projected Newton finish, which ``steps`` counts too.  ``solve``,
``clone-test`` and the simulation's equilibrium ratings solve a game
with exact duplicate actions on its quotient, one action per class of
duplicates (``solvers.solve``), and expand the result to the full game.
The manifest's ``steps``, ``stages``, ``restarts`` and ``newton_steps``
then count the quotient's work.

Game files are JSON.  ``build`` writes a prompt/king/rebel game as its
king tensor alone: ``players``, ``actions``, ``king``, ``shape`` and
``clone_sources``.  ``king`` is one string, the standard padded base64 of
the tensor's bytes as little-endian IEEE-754 float64 in row-major order,
which decodes bit for bit and far faster than a list of JSON numbers.
It is larger than the text of short scores such as the judge scale's
quarter steps (1.55 MB against 0.85 MB on a 500×17×17 game) and about
half the text of full 17-digit floats.  A ``king`` that is a JSON list
holds the same tensor as numbers, flat and row-major, as older ``build``
outputs and hand-written files do.  Every ``--game`` option also reads
the full format of ``games.save_game``, with one flat tensor per player
under ``utilities`` and, for a prompt/king/rebel game,
``clone_sources``; the commands that need a prompt/king/rebel game
(``build --game``, ``rate --method elo``, ``clone-test``) check that its
prompt and rebel tensors are the ones its king tensor defines.

Equilibrium files from ``solve`` are ``EquilibriumResult.to_dict`` JSON:
``method``, ``profile``, ``exploitability``, the ``trace``, the per-player
``targets`` and the solver ``config``.  An NE profile holds its marginals.
A CCE profile holds its dual multipliers, ``{"type": "cce_dual", "duals":
[...], "shape": [...]}`` with one list per player, not the joint: the
multipliers and targets fix the joint, which ``rate`` and ``decompose``
rebuild bit for bit (``solvers.profile_from_dict``).  They reject a CCE
whose exploitability on ``--game`` is not finite or exceeds the file's
``epsilon_cce``, one solved on another game.  Any malformed input file
exits 2 before anything is written, with one line ``error: <path>: ...``.
"""

import argparse
import base64
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
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


def _write_manifest(args, inputs, outputs, extra, t0) -> None:
    """Write the manifest of a command that succeeded: ``<out>.manifest.json``,
    or ``<command>.manifest.json`` in ``--out-dir`` (dashes as underscores)."""
    manifest = {
        "command": args.command,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": time.perf_counter() - t0,
        **extra,
    }
    base = args.out if hasattr(args, "out") else f"{args.out_dir}/{args.command.replace('-', '_')}"
    with open(f"{base}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)


@contextlib.contextmanager
def _reading(path):
    """The JSON of the input file ``path``, for a block that decodes it.
    An error that reading or decoding the file raises becomes one
    ``ParameterError("<path>: ...")``; solving and writing stay outside."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        yield data
    except (ValueError, TypeError, AttributeError, KeyError, IndexError, OverflowError, RecursionError) as exc:
        raise ParameterError(f"{path}: {exc}") from None


def _decode_game(data) -> tuple[games.Game, list | None]:
    """The game in a game file's JSON, and its ``clone_sources``, if any.

    A file with a ``king`` key holds a prompt/king/rebel game as its king
    tensor (see ``_save_koth``): a string is decoded as base64 float64, a
    list read as numbers.  Any other file holds every player's tensor in
    the ``games.save_game`` format, with or without ``clone_sources``.  A
    malformed file raises ``ParameterError`` or whatever decoding it raises.
    """
    if not isinstance(data, dict):
        raise ParameterError(f"a game file holds a JSON object, not {type(data).__name__}")
    needed = ("actions", "shape", "king") if "king" in data else ("players", "actions", "shape", "utilities")
    if missing := [key for key in needed if key not in data]:
        raise ParameterError(f"the game file lacks {', '.join(missing)}")
    shape = data["shape"]
    if not (isinstance(shape, list) and all(type(n) is int for n in shape)):
        raise ParameterError(f"shape must be a list of integers, not {shape!r}")
    # a rating report sorts labels of tied ratings, so they share one type
    if not all(type(label) is str for labels in data["actions"] for label in labels):
        raise ParameterError("every action label must be a string")
    sources = data.get("clone_sources")
    if "king" not in data:
        return games.game_from_dict(data), sources
    king = data["king"]
    if len(shape) != 3:
        raise ParameterError(f"a king tensor has 3 axes (prompt, king, rebel), not shape {shape}")
    if isinstance(king, str):
        try:
            raw = base64.b64decode(king, validate=True)
        except ValueError as exc:
            raise ParameterError(f"king is not base64 ({exc})") from None
        cells = math.prod(shape)
        if len(raw) != 8 * cells:
            found = f"{len(raw) / 8:.15g}"
            raise ParameterError(f"king holds {found} float64 cells, shape {shape} needs {cells}")
        king = np.frombuffer(raw, dtype="<f8")
    u_k = np.asarray(king, dtype=float).reshape(shape)
    prompts, models = data["actions"][:2]
    kg = koth._koth_game(u_k, prompts, models, sources or [None] * len(prompts))
    return kg.game, sources


def _read_game(path) -> tuple[games.Game, list | None]:
    """``_decode_game`` of the game file ``path``, read under ``_reading``."""
    with _reading(path) as data:
        return _decode_game(data)


def _load_koth(path) -> koth.KOTHGame:
    with _reading(path) as data:
        game, sources = _decode_game(data)
        # every KOTH operation rederives the prompt and rebel tensors from
        # the king's, so a file whose other tensors differ is not this game
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
    ``king``, ``shape`` and ``clone_sources``; the prompt and rebel
    tensors follow from the king's (``koth._koth_tensors``), so a third of
    the floats of a full game file are stored.  ``king`` is the base64 of
    the tensor's row-major little-endian float64 bytes: 8 bytes a cell as
    about 10.7 characters, which no ``float.__repr__`` has to write nor
    ``json`` parse back.  ``_read_game`` reads it back, and reads king
    lists and full game files too.
    """
    king = base64.b64encode(kg.u_king.astype("<f8", copy=False).tobytes()).decode("ascii")
    data = {
        "players": list(kg.game.players),
        "actions": [list(lbls) for lbls in kg.game.action_labels],
        "king": king,
        "shape": list(kg.game.shape),
        "clone_sources": list(kg.clone_sources),
    }
    # dump writes the document in pieces, never as one more string
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def cmd_build(args):
    t0 = time.perf_counter()
    if args.prefs:
        table = koth.read_preference_csv(args.prefs)
        t_read = time.perf_counter()
        kg = koth.build_koth(table)
        samples, source = len(table), args.prefs
        del table  # freed before the game file is written
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
    return [source], [args.out, report_path], {"timings": timings}


def cmd_solve(args):
    t0 = time.perf_counter()
    game, _ = _read_game(args.game)
    t_load = time.perf_counter()
    if args.entropy == "affinity":
        targets = kernels.affinity_targets(game, variance=args.variance, mode=args.mode)
    else:
        targets = solvers.uniform_targets(game)
    t_targets = time.perf_counter()
    # --epsilon is the method's epsilon_ne or epsilon_cce
    settings = {"max_steps": args.max_steps, f"epsilon_{args.method}": args.epsilon}
    result = solvers.solve(game, args.method, targets, **{k: v for k, v in settings.items() if v is not None})
    t_solve = time.perf_counter()
    result.save(args.out)
    timings = {
        "load_s": t_load - t0,
        "targets_s": t_targets - t_load,
        "solve_s": t_solve - t_targets,
        "write_s": time.perf_counter() - t_solve,
    }
    return [args.game], [args.out], {
        "exploitability": result.exploitability,
        "steps": result.trace[-1].step,
        "termination": result.termination,
        "stages": len({r.tau for r in result.trace if r.tau is not None}),
        "restarts": result.restarts,
        **({"newton_steps": result.newton_steps} if args.method == "cce" else {}),
        "timings": timings,
    }


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


def _read_solved(args):
    """The game of ``--game``, the profile of ``--equilibrium`` on it, and
    the method that file records, upper-cased as a rating report's label."""
    game, _ = _read_game(args.game)
    with _reading(args.equilibrium) as eq:
        return game, solvers.profile_from_dict(eq, game), eq.get("method", "eq").upper()


def cmd_rate(args):
    if args.method == "elo":
        report, inputs = _elo_report(_load_koth(args.game)), [args.game]
    else:
        game, profile, method = _read_solved(args)
        report, inputs = ratings.rate(game, profile, method), [args.game, args.equilibrium]
    report.save_json(args.out)
    csv_path = f"{args.out}.csv"
    report.save_csv(csv_path)
    return inputs, [args.out, csv_path], {}


def _method_report(kg: koth.KOTHGame, method: str, affinity, classes) -> ratings.RatingReport:
    """The rating report of one clone-test method tag; ``affinity`` holds
    the game's affinity targets and ``classes`` its duplicate classes, both
    shared by its ne and cce methods."""
    if method == "elo":
        return _elo_report(kg)
    targets = solvers.uniform_targets(kg.game) if method.endswith("shannon") else affinity
    result = solvers.solve(kg.game, method.split("-")[0], targets, classes)
    return ratings.rate(kg.game, result.profile, method.upper())


def cmd_clone_test(args):
    kg = _load_koth(args.game)
    if args.target not in kg.models:
        raise ParameterError(f"target model {args.target!r} not in game")
    # every setting is checked before the first file is written
    try:
        counts = [int(c) for c in args.counts.split(",")]
    except ValueError:
        raise ParameterError(f"--counts must be comma-separated integers, not {args.counts}") from None
    if min(counts) < 0 or len(set(counts)) < len(counts):
        raise ParameterError(f"--counts must be nonnegative and distinct, not {args.counts}")
    if not math.isfinite(args.lam):
        raise ParameterError(f"--lambda must be finite, not {args.lam}")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise ParameterError(f"--noise must be finite and nonnegative, not {args.noise}")
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
        affinity = kernels.affinity_targets(injected.game)
        classes = solvers._duplicate_classes(injected.game)
        for method in CLONE_TEST_METHODS:
            report = _method_report(injected, method, affinity, classes)
            order = report.ranking(report.player_index("king"))
            path = f"{args.out_dir}/ranking_{method}_{count}.csv"
            report.save_csv(path)
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
    return [args.game], outputs, {}


def cmd_decompose(args):
    game, profile, _ = _read_solved(args)
    grouping = None
    inputs = [args.game, args.equilibrium]
    if args.families:
        with _reading(args.families) as grouping:
            if not (isinstance(grouping, dict) and all(isinstance(f, str) for f in grouping.values())):
                raise ParameterError("--families must be a JSON object of label to family")
        inputs.append(args.families)
    if not 0 <= args.player < game.num_players:
        raise ParameterError("player index out of range")
    labels = game.action_labels[args.player]
    if args.action not in labels:
        raise ParameterError(
            f"--action {args.action!r} is not an action of player {args.player} ({game.players[args.player]})"
        )
    action = labels.index(args.action)
    table = ratings.decompose(game, profile, args.player, action, args.co_player, grouping)
    table.save_csv(args.out)
    return inputs, [args.out], {}


def cmd_simulate(args):
    with _reading(args.config) as raw:
        if not isinstance(raw, dict):
            raise ParameterError("a simulate config must be a JSON object")
        if "methods" in raw and "rating_method" in raw:
            raise ParameterError("a simulate config gives methods or rating_method, not both")
        methods = raw.pop("methods", [raw.pop("rating_method", "elo")])
        if not (isinstance(methods, list) and methods):
            raise ParameterError(f"methods must be a nonempty list, not {methods!r}")
        known = {f.name for f in dataclasses.fields(skillsim.SimConfig)}
        for key in raw:
            if key not in known:
                raise ParameterError(f"unknown simulate config key {key!r}")
        # every method's config is checked before the first trial runs
        configs = [skillsim.SimConfig(rating_method=method, **raw) for method in methods]
        if len(set(methods)) < len(methods):
            raise ParameterError(f"methods must not repeat a method: {methods!r}")
    outputs = []
    for method, config in zip(methods, configs):
        traj = skillsim.run_simulation(config)
        json_path = f"{args.out_dir}/trajectory_{method}.json"
        traj.save(json_path)
        rows = skillsim.entropy_trace(traj)
        csv_path = f"{args.out_dir}/trajectory_{method}.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        outputs += [json_path, csv_path]
    return [args.config], outputs, {}


def cmd_enumerate(args):
    game, _ = _read_game(args.game)
    enum = solvers.enumerate_nes(game, args.count, epsilon=args.epsilon, seed=args.seed)
    beliefs = solvers.risk_dominance_beliefs(game, enum.profiles)
    bundle = {
        "requested": enum.requested,
        "complete": enum.complete,
        "min_pairwise_gap": enum.min_pairwise_gap,
        "stalled": enum.stalled,
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
    return [args.game], [args.out, table_path], {}


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
    t0 = time.perf_counter()
    try:
        inputs, outputs, extra = args.func(args)
        _write_manifest(args, inputs, outputs, extra, t0)
    except IncompleteDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for key in exc.missing[:20]:
            print(f"  missing: {key}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # a ParameterError is a ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
