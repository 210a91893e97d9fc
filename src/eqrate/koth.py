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
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IncompleteDataError, ParameterError
from .games import Game

SCORES = (-1.0, -0.5, 0.0, 0.5, 1.0)
PLAYER_NAMES = ("prompt", "king", "rebel")


def _check_judgements(score: np.ndarray, model_a, model_b) -> None:
    """Reject the first judgement off the 5-point scale or of a model against itself."""
    on_scale = np.zeros(score.shape, dtype=bool)
    for s in SCORES:
        on_scale |= np.abs(score - s) < 1e-12
    same = np.fromiter(map(operator.eq, model_a, model_b), dtype=bool, count=len(score))
    bad = ~on_scale | same
    if bad.any():
        i = int(np.argmax(bad))
        if not on_scale[i]:
            raise ParameterError(f"score {score[i]} not in the 5-point scale {SCORES}")
        raise ParameterError("self-comparisons are not meaningful")


@dataclass(frozen=True)
class PreferenceRecord:
    """One judge sample: how strongly model_a beat model_b on a prompt."""

    prompt_id: str
    model_a: str
    model_b: str
    score: float

    def __post_init__(self):
        _check_judgements(np.array([self.score]), (self.model_a,), (self.model_b,))


@dataclass(frozen=True)
class PreferenceTable:
    """Judge samples as columns: row ``i`` is one ``PreferenceRecord``.

    The three label columns are tuples of strings and ``score`` is a float
    array, all of one length.  Indexing a row returns its record.
    """

    prompt_id: tuple[str, ...]
    model_a: tuple[str, ...]
    model_b: tuple[str, ...]
    score: np.ndarray

    def __post_init__(self):
        for name in ("prompt_id", "model_a", "model_b"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "score", np.asarray(self.score, dtype=float))
        n = len(self.score)
        if self.score.ndim != 1 or not len(self.prompt_id) == len(self.model_a) == len(self.model_b) == n:
            raise DimensionError("preference columns must be vectors of one length")
        _check_judgements(self.score, self.model_a, self.model_b)

    @classmethod
    def from_records(cls, records: Iterable[PreferenceRecord]) -> "PreferenceTable":
        rows = list(records)
        return cls(
            prompt_id=tuple(r.prompt_id for r in rows),
            model_a=tuple(r.model_a for r in rows),
            model_b=tuple(r.model_b for r in rows),
            score=np.array([r.score for r in rows], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i: int) -> PreferenceRecord:
        return PreferenceRecord(self.prompt_id[i], self.model_a[i], self.model_b[i], float(self.score[i]))


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


def build_koth(records: PreferenceTable | Iterable[PreferenceRecord]) -> KOTHGame:
    """Tabulate the evaluation game from judge samples.

    ``records`` is a ``PreferenceTable`` (what ``read_preference_csv``
    returns) or any iterable of ``PreferenceRecord``s, which is turned into
    one.  Samples for a (prompt, ordered pair) cell are averaged; when both
    orientations of a pair were judged, the cell is the average of the
    forward mean and the negated reverse mean (position-bias
    symmetrization), and the king tensor is exactly antisymmetric by
    construction.  Prompts and models are indexed in sorted label order.
    Every unordered pair must be covered on every prompt.
    """
    table = records if isinstance(records, PreferenceTable) else PreferenceTable.from_records(records)
    if not len(table):
        raise IncompleteDataError("no preference records", missing=[])
    prompts = sorted(set(table.prompt_id))
    models = sorted(set(table.model_a) | set(table.model_b))
    P, M = len(prompts), len(models)
    p_idx = {p: i for i, p in enumerate(prompts)}
    m_idx = {m: i for i, m in enumerate(models)}

    def index(labels, idx):
        return np.fromiter(map(idx.__getitem__, labels), dtype=np.intp, count=len(labels))

    # bincount adds the samples of a cell in record order
    cell = (index(table.prompt_id, p_idx) * M + index(table.model_a, m_idx)) * M + index(table.model_b, m_idx)
    sums = np.bincount(cell, weights=table.score, minlength=P * M * M).reshape(P, M, M)
    counts = np.bincount(cell, minlength=P * M * M).reshape(P, M, M)
    a, b = np.triu_indices(M, 1)
    s_f, c_f = sums[:, a, b], counts[:, a, b]
    s_r, c_r = sums[:, b, a], counts[:, b, a]
    have_f, have_r = c_f > 0, c_r > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        fwd = s_f / c_f
        rev = -(s_r / c_r)
    upper = np.where(have_f & have_r, (fwd + rev) / 2, np.where(have_f, fwd, rev))

    missing = [
        (prompts[p], models[a[k]], models[b[k]])
        for p, k in zip(*np.nonzero(~(have_f | have_r)))
    ]
    if missing:
        raise IncompleteDataError(
            f"{len(missing)} (prompt, model pair) cells have no ratings; "
            f"first few: {missing[:5]}",
            missing=missing,
        )
    u_k = np.zeros((P, M, M))
    u_k[:, a, b] = upper
    u_k[:, b, a] = -upper  # the twin of a 0.0 cell is -0.0
    return _koth_game(u_k, prompts, models, [None] * P)


def read_preference_csv(path) -> PreferenceTable:
    """Read a preference CSV into a ``PreferenceTable``.

    The header must name the columns ``prompt_id``, ``model_a``,
    ``model_b`` and ``score``, in any order and among any others; blank
    lines are skipped.  A row too short to reach every required column, a
    score off the 5-point scale and a self-comparison raise
    ``ParameterError``.
    """
    required = ("prompt_id", "model_a", "model_b", "score")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(required).issubset(header):
            raise ParameterError(f"preference CSV must have columns {sorted(required)}")
        # a repeated column name means its last column, as in csv.DictReader
        position = {name: i for i, name in enumerate(header)}
        columns = [position[name] for name in required]
        width = max(columns) + 1
        rows = []
        for row in reader:
            if len(row) >= width:
                rows.append(row)
            elif row:
                raise ParameterError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, "
                    f"too few to reach the columns {list(required)}"
                )
    prompt_id, model_a, model_b, score = (tuple(map(operator.itemgetter(c), rows)) for c in columns)
    return PreferenceTable(
        prompt_id, model_a, model_b, np.fromiter(map(float, score), dtype=float, count=len(score))
    )


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
