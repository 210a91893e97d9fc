"""King-of-the-hill game construction from pairwise preference data.

The evaluation game has three players: a prompt player, a king player and
a rebel player.  The king's payoff is the judged preference for its model
over the rebel's on the chosen prompt; the prompt player is rewarded for
separating the models; the rebel mirrors the king's payoff negated except
when it picks the king's own model, which costs it outright.  Clone
injection appends duplicated (optionally noised) prompt rows for the
invariance experiments, with provenance recorded.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IncompleteDataError, ParameterError
from .games import Game

SCORES = (-1.0, -0.5, 0.0, 0.5, 1.0)
PLAYER_NAMES = ("prompt", "king", "rebel")


@dataclass(frozen=True)
class PreferenceRecord:
    """One judge sample: how strongly model_a beat model_b on a prompt."""

    prompt_id: str
    model_a: str
    model_b: str
    score: float

    def __post_init__(self):
        if not any(abs(self.score - s) < 1e-12 for s in SCORES):
            raise ParameterError(
                f"score {self.score} not in the 5-point scale {SCORES}"
            )
        if self.model_a == self.model_b:
            raise ParameterError("self-comparisons are not meaningful")


@dataclass(frozen=True)
class KOTHGame:
    """A 3-player evaluation game plus prompt clone provenance.

    ``clone_sources[p]`` is the index of the prompt that row ``p`` was
    cloned from, or None for an original prompt.
    """

    game: Game
    clone_sources: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.clone_sources) != self.game.shape[0]:
            raise DimensionError("one clone-source entry per prompt required")

    @property
    def prompts(self) -> tuple[str, ...]:
        return self.game.action_labels[0]

    @property
    def models(self) -> tuple[str, ...]:
        return self.game.action_labels[1]

    @property
    def u_king(self) -> np.ndarray:
        return self.game.utilities[1]


def _koth_tensors(u_k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derive prompt and rebel tensors from the king tensor."""
    u_p = np.abs(u_k)
    u_r = -u_k.copy()
    m = u_k.shape[1]
    diag = np.arange(m)
    u_r[:, diag, diag] = -1.0
    return u_p, u_k, u_r


def _koth_game(u_k: np.ndarray, prompts, models, clone_sources) -> KOTHGame:
    u_p, u_k, u_r = _koth_tensors(u_k)
    game = Game(
        players=PLAYER_NAMES,
        action_labels=(tuple(prompts), tuple(models), tuple(models)),
        utilities=(u_p, u_k, u_r),
    )
    return KOTHGame(game=game, clone_sources=tuple(clone_sources))


def build_koth(records: list[PreferenceRecord]) -> KOTHGame:
    """Tabulate the evaluation game from judge samples.

    Samples for a (prompt, ordered pair) cell are averaged; when both
    orientations of a pair were judged, the cell is the average of the
    forward mean and the negated reverse mean (position-bias
    symmetrization), and the king tensor is exactly antisymmetric by
    construction.  Every unordered pair must be covered on every prompt.
    """
    if not records:
        raise IncompleteDataError("no preference records", missing=[])
    prompts = sorted({r.prompt_id for r in records})
    models = sorted({r.model_a for r in records} | {r.model_b for r in records})
    p_idx = {p: i for i, p in enumerate(prompts)}
    m_idx = {m: i for i, m in enumerate(models)}

    sums = {}
    counts = {}
    for r in records:
        key = (p_idx[r.prompt_id], m_idx[r.model_a], m_idx[r.model_b])
        sums[key] = sums.get(key, 0.0) + r.score
        counts[key] = counts.get(key, 0) + 1

    P, M = len(prompts), len(models)
    if M < 2:
        raise IncompleteDataError("need at least two models", missing=[])
    u_k = np.zeros((P, M, M))
    missing = []
    for p in range(P):
        for a in range(M):
            for b in range(a + 1, M):
                fwd = (p, a, b)
                rev = (p, b, a)
                have_fwd, have_rev = fwd in sums, rev in sums
                if not have_fwd and not have_rev:
                    missing.append((prompts[p], models[a], models[b]))
                    continue
                vals = []
                if have_fwd:
                    vals.append(sums[fwd] / counts[fwd])
                if have_rev:
                    vals.append(-sums[rev] / counts[rev])
                u_k[p, a, b] = float(np.mean(vals))
                u_k[p, b, a] = -u_k[p, a, b]
    if missing:
        raise IncompleteDataError(
            f"{len(missing)} (prompt, model pair) cells have no ratings; "
            f"first few: {missing[:5]}",
            missing=missing,
        )
    return _koth_game(u_k, prompts, models, [None] * P)


def read_preference_csv(path) -> list[PreferenceRecord]:
    """Read ``prompt_id,model_a,model_b,score`` rows (header required)."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"prompt_id", "model_a", "model_b", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ParameterError(
                f"preference CSV must have columns {sorted(required)}"
            )
        for row in reader:
            records.append(
                PreferenceRecord(
                    prompt_id=row["prompt_id"],
                    model_a=row["model_a"],
                    model_b=row["model_b"],
                    score=float(row["score"]),
                )
            )
    return records


def mean_king_payoff(koth: KOTHGame, target_model: str) -> np.ndarray:
    """Per-prompt king payoff of the target model vs a random rebel."""
    if target_model not in koth.models:
        raise ParameterError(f"unknown model {target_model!r}")
    k = koth.models.index(target_model)
    return koth.u_king[:, k, :].mean(axis=1)


def adversarial_prompt_sampler(
    koth: KOTHGame,
    target_model: str,
    lam: float = 10.0,
    count: int = 1,
    seed: int = 0,
) -> list[int]:
    """Sample prompt indices hostile to one model.

    Draws i.i.d. from ``softmax(-lam * mean king payoff)`` over the
    existing prompts, so prompts on which the target fares worst are
    sampled most; ``lam = 0`` is uniform.
    """
    if len(koth.prompts) == 0:
        raise ParameterError("game has no prompts")
    ubar = mean_king_payoff(koth, target_model)
    logits = -lam * ubar
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(len(probs), size=count, p=probs).tolist()


def inject_clones(
    koth: KOTHGame,
    prompt_indices,
    noise_halfwidth: float = 0.0,
    seed: int = 0,
) -> KOTHGame:
    """Append duplicated prompt rows, optionally perturbed.

    With a positive ``noise_halfwidth`` the duplicated king rows get
    i.i.d. Uniform(-h, h) noise on their off-diagonal entries (the
    king-equals-rebel diagonal stays at its defining values), and the
    prompt and rebel tensors are rederived from the noised king tensor.
    """
    if noise_halfwidth < 0:
        raise ParameterError("noise_halfwidth must be nonnegative")
    P = len(koth.prompts)
    idx = list(prompt_indices)
    for i in idx:
        if not 0 <= i < P:
            raise DimensionError(f"prompt index {i} out of range")
    if not idx:
        return koth
    rng = np.random.default_rng(seed)
    new_rows = koth.u_king[idx].copy()
    if noise_halfwidth > 0:
        m = new_rows.shape[1]
        noise = rng.uniform(-noise_halfwidth, noise_halfwidth, size=new_rows.shape)
        off_diag = ~np.eye(m, dtype=bool)
        new_rows[:, off_diag] += noise[:, off_diag]
    u_k = np.concatenate([koth.u_king, new_rows], axis=0)
    counts: dict[int, int] = {}
    labels = list(koth.prompts)
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
        labels.append(f"{koth.prompts[i]}__clone{counts[i]}")
    sources = list(koth.clone_sources) + idx
    return _koth_game(u_k, labels, koth.models, sources)


def prompt_average_win_matrix(koth: KOTHGame) -> np.ndarray:
    """Pairwise expected win scores averaged over prompts.

    Judge scores map to expected wins via ``w = (s + 1) / 2``; scores are
    clipped to [-1, 1] first so games built from unbounded margins (e.g.
    the skill-world simulation) still produce valid scores.  The diagonal
    is fixed at 0.5.
    """
    return _win_matrix(koth.u_king)


def _win_matrix(u_k: np.ndarray) -> np.ndarray:
    """``prompt_average_win_matrix`` of a bare king tensor."""
    scores = np.clip(u_k, -1.0, 1.0)
    w = (scores.mean(axis=0) + 1.0) / 2.0
    w = (w + (1.0 - w.T)) / 2.0  # enforce w_ij + w_ji = 1 exactly
    np.fill_diagonal(w, 0.5)
    return w
