"""Seeded benchmark inputs: judge preference CSVs and KOTH game files.

A judge score is a latent margin between two models on a prompt, made of
three parts: the models' skill gap, a per-prompt effect for each model and
judge noise.  The margin is quantised to the 5-point scale the preference
format accepts.  Both orientations of every pair are judged, each with its
own noise and a small position bias.

Each workload is one fixed instance drawn from ``content_seed``.  The run
seed only relabels and reorders it (``presentation_seed``): model and
prompt names, the order the CSV rows come in, and the order of the model
axis in a game file.  That changes every byte of an input but not the
game up to a permutation, so the solvers do the same work.  At this
commit a solver's step count swings by two orders of magnitude between
instances (see ``run.py``), which no per-run median could steady.

The program under test is not imported here: the game JSON is written in
its file format (``games.game_to_dict`` plus ``clone_sources``).  One pair
of seeds gives byte-identical files.
"""

import json

import numpy as np

SCORES = (-1.0, -0.5, 0.0, 0.5, 1.0)
# The scales are in units of the latent margin; none comes from a fitted
# judge.  They are set so that a 500x17 instance (content seed 0) uses
# every score level, none below 15% of the judgements: 21% ties, 45% half
# wins and 34% full wins, with the skill gap the largest part and the
# per-prompt effect large enough that the best model still loses 4.2% of
# its judgements.  The position bias makes the model shown first win 41.6% of
# judgements and lose 37.5%, and the two orientations of a pair give
# contradicting wins 2.4% of the time.
# Latent margins below the first edge are ties, below the second half wins.
EDGES = (0.25, 0.9)
SKILL_SD = 0.6
PROMPT_EFFECT_SD = 0.35
NOISE_SD = 0.3
POSITION_BIAS = 0.05


def labels(prefix: str, count: int) -> list[str]:
    width = len(str(count - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def judge_scores(prompts: int, models: int, content_seed: int) -> np.ndarray:
    """Quantised scores ``s[p, a, b]`` for model a shown first against b.

    Every ordered pair a != b is judged once; the diagonal is 0.
    """
    rng = np.random.default_rng(content_seed)
    skill = rng.normal(0.0, SKILL_SD, size=models)
    effect = rng.normal(0.0, PROMPT_EFFECT_SD, size=(prompts, models))
    strength = skill[None, :] + effect
    margin = strength[:, :, None] - strength[:, None, :]
    margin = margin + rng.normal(0.0, NOISE_SD, size=margin.shape) + POSITION_BIAS
    mag = np.where(np.abs(margin) < EDGES[0], 0.0, np.where(np.abs(margin) < EDGES[1], 0.5, 1.0))
    scores = np.sign(margin) * mag
    diag = np.arange(models)
    scores[:, diag, diag] = 0.0
    return scores


def write_preference_csv(
    path, prompts: int, models: int, content_seed: int, presentation_seed: int
) -> int:
    """Write ``prompt_id,model_a,model_b,score`` rows; returns the row count.

    Prompt and model names are shuffled, so the game ``build`` makes is
    the content instance with both axes permuted; the rows are shuffled too.
    """
    s = judge_scores(prompts, models, content_seed)
    rng = np.random.default_rng(presentation_seed)
    p_lab = [labels("prompt", prompts)[i] for i in rng.permutation(prompts)]
    m_lab = [labels("model", models)[i] for i in rng.permutation(models)]
    text = {v: repr(v) for v in SCORES}
    rows = [
        f"{p_lab[p]},{m_lab[a]},{m_lab[b]},{text[float(s[p, a, b])]}\n"
        for p in range(prompts)
        for a in range(models)
        for b in range(models)
        if a != b
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("prompt_id,model_a,model_b,score\n")
        fh.writelines(rows[i] for i in rng.permutation(len(rows)))
    return len(rows)


def write_koth_game(
    path, prompts: int, models: int, content_seed: int, presentation_seed: int
) -> None:
    """Write a prompt/king/rebel game JSON with no clones.

    The king tensor is what ``build`` makes of ``judge_scores``: the
    forward score and the negated reverse score, averaged.  The model axis
    is permuted by ``presentation_seed``; the prompt axis keeps its order,
    so a seeded prompt sampler picks the same rows.
    """
    s = judge_scores(prompts, models, content_seed)
    perm = np.random.default_rng(presentation_seed).permutation(models)
    u_k = ((s - np.transpose(s, (0, 2, 1))) / 2.0)[:, perm][:, :, perm]
    u_r = -u_k
    diag = np.arange(models)
    u_r[:, diag, diag] = -1.0
    m_lab = labels("model", models)
    data = {
        "players": ["prompt", "king", "rebel"],
        "actions": [labels("prompt", prompts), m_lab, m_lab],
        "utilities": [np.abs(u_k).ravel().tolist(), u_k.ravel().tolist(), u_r.ravel().tolist()],
        "shape": [prompts, models, models],
        "clone_sources": [None] * prompts,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
