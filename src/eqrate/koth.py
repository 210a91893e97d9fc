"""King-of-the-hill game construction from pairwise preference data.

The evaluation game has three players: a prompt player, a king player and
a rebel player.  The king's payoff is the judged preference for its model
over the rebel's on the chosen prompt; the prompt player is rewarded for
separating the models; the rebel mirrors the king's payoff negated except
when it picks the king's own model, which costs it outright.  Clone
injection appends duplicated (optionally noised) prompt rows for the
invariance experiments, with provenance recorded.

Judge samples are held categorically: a ``PreferenceTable`` keeps each
label column as ``int32`` codes into one sorted tuple of labels, so a
sample costs 20 bytes however long its labels are.  The CSV reader codes
the file a block at a time and ``build_koth`` tabulates from the codes,
so reading and building a game peak at about twice the file's size.
"""

import csv
import io
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IncompleteDataError, ParameterError
from .games import Game

SCORES = (-1.0, -0.5, 0.0, 0.5, 1.0)
PLAYER_NAMES = ("prompt", "king", "rebel")
# characters of a preference CSV read and coded at a time, run on to a line
# end, and rows coded at a time once csv.reader parses the rest of the file
BLOCK_CHARS = 1 << 16
CSV_ROWS = 1 << 11


def _check_judgements(score: np.ndarray, same: np.ndarray) -> None:
    """Reject the first judgement off the 5-point scale or of a model
    against itself (``same``).  A score is on the scale within 1e-12 of one
    of its points, the half-integers k/2 with |k| <= 2."""
    k = np.rint(2 * score)
    with np.errstate(invalid="ignore"):  # inf - inf is nan: off the scale
        on_scale = (np.abs(k) <= 2) & (np.abs(score - k / 2) < 1e-12)
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
        _check_judgements(np.array([self.score]), np.array([self.model_a == self.model_b]))


class _Codebook(dict):
    """Label to code; a label seen for the first time gets the next code."""

    def __missing__(self, label):
        self[label] = code = len(self)
        return code

    def codes(self, labels) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, labels), dtype=np.int32, count=len(labels))

    def sort(self) -> tuple[tuple, np.ndarray]:
        """The labels in sorted order, and each code's rank among them."""
        labels = sorted(self)
        rank = np.empty(len(labels), dtype=np.int32)
        rank[self.codes(labels)] = np.arange(len(labels))
        return tuple(labels), rank


class PreferenceTable:
    """Judge samples as columns: row ``i`` is one ``PreferenceRecord``.

    The table is categorical: ``prompts`` and ``models`` are the sorted
    distinct labels (``models`` of ``model_a`` and ``model_b`` together),
    ``prompt_code``, ``a_code`` and ``b_code`` are ``int32`` indices into
    them and ``score`` is a float64 array, all of one length, so a row
    costs 20 bytes however long its labels are.  The constructor takes
    the label columns as sequences of strings, and the ``prompt_id``,
    ``model_a`` and ``model_b`` tuples are rebuilt on access.
    """

    def __init__(self, prompt_id, model_a, model_b, score):
        prompts, models = _Codebook(), _Codebook()
        prompt_id, model_a, model_b = tuple(prompt_id), tuple(model_a), tuple(model_b)
        self._fill(prompts, models, prompts.codes(prompt_id), models.codes(model_a), models.codes(model_b), score)

    @classmethod
    def _from_codes(cls, prompts: _Codebook, models: _Codebook, prompt_code, a_code, b_code, score):
        table = cls.__new__(cls)
        table._fill(prompts, models, prompt_code, a_code, b_code, score)
        return table

    def _fill(self, prompts: _Codebook, models: _Codebook, prompt_code, a_code, b_code, score) -> None:
        score = np.asarray(score, dtype=float)
        if score.ndim != 1 or not len(prompt_code) == len(a_code) == len(b_code) == len(score):
            raise DimensionError("preference columns must be vectors of one length")
        _check_judgements(score, a_code == b_code)
        (self.prompts, p_rank), (self.models, m_rank) = prompts.sort(), models.sort()
        self.prompt_code, self.a_code, self.b_code = p_rank[prompt_code], m_rank[a_code], m_rank[b_code]
        self.score = score

    @classmethod
    def from_records(cls, records: Iterable[PreferenceRecord]) -> "PreferenceTable":
        rows = list(records)
        return cls(
            prompt_id=tuple(r.prompt_id for r in rows),
            model_a=tuple(r.model_a for r in rows),
            model_b=tuple(r.model_b for r in rows),
            score=np.array([r.score for r in rows], dtype=float),
        )

    prompt_id = property(lambda self: tuple(map(self.prompts.__getitem__, self.prompt_code.tolist())))
    model_a = property(lambda self: tuple(map(self.models.__getitem__, self.a_code.tolist())))
    model_b = property(lambda self: tuple(map(self.models.__getitem__, self.b_code.tolist())))

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i: int) -> PreferenceRecord:
        p, a, b = self.prompts[self.prompt_code[i]], self.models[self.a_code[i]], self.models[self.b_code[i]]
        return PreferenceRecord(p, a, b, float(self.score[i]))


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
    u_r = -u_k
    m = u_k.shape[1]
    diag = np.arange(m)
    u_r[:, diag, diag] = -1.0
    return u_p, u_k, u_r


def _koth_game(u_k: np.ndarray, prompts, models, clone_sources) -> KOTHGame:
    u_p, u_k, u_r = _koth_tensors(u_k)
    # the prompt and rebel tensors are new, so the game keeps them uncopied
    u_p.setflags(write=False)
    u_r.setflags(write=False)
    game = Game(
        players=PLAYER_NAMES,
        action_labels=(tuple(prompts), tuple(models), tuple(models)),
        utilities=(u_p, u_k, u_r),
    )
    return KOTHGame(game=game, clone_sources=tuple(clone_sources))


def _pair_means(table: PreferenceTable, P: int, M: int, a: np.ndarray, b: np.ndarray):
    """The king's payoff on each (prompt, pair ``a[k] < b[k]``) cell, and
    whether the cell was judged.  The per-sample arrays die on return,
    before the game's tensors are made."""
    cell = (table.prompt_code.astype(np.intp) * M + table.a_code) * M + table.b_code
    # bincount adds the samples of a cell in record order; scores are
    # finite, so an unjudged cell's mean is 0/0, nan
    with np.errstate(invalid="ignore"):
        mean = np.bincount(cell, weights=table.score, minlength=P * M * M) / np.bincount(cell, minlength=P * M * M)
    mean = mean.reshape(P, M, M)
    fwd, rev = mean[:, a, b], -mean[:, b, a]
    have_f, have_r = ~np.isnan(fwd), ~np.isnan(rev)
    return np.where(have_f & have_r, (fwd + rev) / 2, np.where(have_f, fwd, rev)), have_f | have_r


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
    prompts, models = table.prompts, table.models
    P, M = len(prompts), len(models)
    a, b = np.triu_indices(M, 1)
    upper, judged = _pair_means(table, P, M, a, b)
    missing = [(prompts[p], models[a[k]], models[b[k]]) for p, k in zip(*np.nonzero(~judged))]
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


REQUIRED_COLUMNS = ("prompt_id", "model_a", "model_b", "score")


def _column_positions(header) -> list[int]:
    """Each required column's index; a repeated name means its last column."""
    if not set(REQUIRED_COLUMNS).issubset(header):
        raise ParameterError(f"preference CSV must have columns {sorted(REQUIRED_COLUMNS)}")
    position = {name: i for i, name in enumerate(header)}
    return [position[name] for name in REQUIRED_COLUMNS]


def _rows(reader, width: int, path, before: int):
    """The rows of a ``csv.reader`` that reach ``width`` fields, blank rows
    skipped.  A shorter row, or a ``csv.Error`` such as a field over
    ``csv.field_size_limit()``, raises ``ParameterError`` naming its line,
    ``before`` lines coming ahead of the reader's first."""
    try:
        for row in reader:
            if len(row) >= width:
                yield row
            elif row:
                raise ParameterError(
                    f"{path}, line {before + reader.line_num}: {len(row)} fields, "
                    f"too few to reach the columns {list(REQUIRED_COLUMNS)}"
                )
    except csv.Error as exc:
        raise ParameterError(f"{path}, line {before + reader.line_num}: {exc}") from None


def _split_plain(block: str, columns) -> list[list[str]] | None:
    """The required columns of a block of lines, split on ``\\n`` and ``,``
    in bulk, as ``csv.reader`` would split them, blank lines skipped; None
    if the block has a ``"`` or a ``\\r``, if its lines differ in width or
    are too short to reach every column, or if a field is over
    ``csv.field_size_limit()``."""
    if '"' in block or "\r" in block:
        return None
    if block.startswith("\n") or "\n\n" in block:
        block = "\n".join(filter(None, block.split("\n"))) + "\n"
    # With a "\n" field put between lines, the lines all have one width iff
    # every stride-th field is that "\n".
    body = block.removesuffix("\n")
    fields = body.replace("\n", ",\n,").split(",")
    lines = body.count("\n") + 1
    stride = (len(fields) + 1) // lines
    if (
        stride > max(columns) + 1
        and len(fields) == stride * lines - 1
        and fields[stride - 1 :: stride].count("\n") == lines - 1
        and (len(block) <= csv.field_size_limit() or max(map(len, fields)) <= csv.field_size_limit())
    ):
        return [fields[c::stride] for c in columns]
    return None


def _bad_score(path, column: int) -> ParameterError:
    """Name the line of the first score that is not a number."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):
            try:
                float(row[column])
            except ValueError:
                return ParameterError(f"{path}, line {reader.line_num}: score {row[column]!r} is not a number")


def read_preference_csv(path) -> PreferenceTable:
    """Read a preference CSV into a ``PreferenceTable``.

    The header must name the columns ``prompt_id``, ``model_a``,
    ``model_b`` and ``score``, in any order and among any others; blank
    lines are skipped.  A row too short to reach every required column, a
    field over ``csv.field_size_limit()``, a score that is not a number or
    off the 5-point scale and a self-comparison raise ``ParameterError``,
    each naming the first offender's line as ``csv.reader`` would; a file
    that is not UTF-8 raises one naming the file.

    The file is read and coded in blocks of ``BLOCK_CHARS`` characters run
    on to a line end, so only one block's fields are Python strings at a
    time; a score is coded by its spelling, which ``float`` parses once.
    Blocks are split on ``\\n`` and ``,`` in bulk while their lines have one
    width and no ``"`` or ``\\r``; from the first that does not, one
    ``csv.reader`` parses the rest, coded ``CSV_ROWS`` rows at a time.
    Reading and ``build_koth`` together peak at about twice the file's size
    (tracemalloc, 500 prompts x 17 models, every ordered pair once).
    """
    prompts, models, spellings = _Codebook(), _Codebook(), _Codebook()
    books = (prompts, models, models, spellings)
    parts = tuple([np.zeros(0, dtype=np.int32)] for _ in books)  # a header-only file has no block

    def add(columns):
        for part, book, labels in zip(parts, books, columns):
            part.append(book.codes(labels))

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = csv.reader(iter(fh.readline, ""))
            columns = _column_positions(next(_rows(header, 0, path, 0), []))
            width, line = max(columns) + 1, header.line_num + 1
            # readline ends a block where csv.reader ends a line: at "\n", "\r" or "\r\n"
            for block in iter(lambda: fh.read(BLOCK_CHARS) + fh.readline(), ""):
                split = _split_plain(block, columns)
                if split is None:
                    # a quoted field may run on past any block's end
                    rows = _rows(csv.reader(itertools.chain(io.StringIO(block, newline=""), fh)), width, path, line - 1)
                    while chunk := list(itertools.islice(rows, CSV_ROWS)):
                        add([list(map(operator.itemgetter(c), chunk)) for c in columns])
                    break
                add(split)
                line += block.count("\n")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        values = np.array([float(s) for s in spellings], dtype=float)
    except ValueError:
        raise _bad_score(path, columns[3]) from None
    prompt_code, a_code, b_code, score_code = map(np.concatenate, parts)
    return PreferenceTable._from_codes(prompts, models, prompt_code, a_code, b_code, values[score_code])


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
    if not math.isfinite(lam):
        raise ParameterError(f"lam must be finite, not {lam}")
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
    if not (math.isfinite(noise_halfwidth) and noise_halfwidth >= 0):
        raise ParameterError(f"noise_halfwidth must be finite and nonnegative, not {noise_halfwidth}")
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
