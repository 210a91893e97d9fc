"""Checks of the benchmark's own machinery.

Run from the root of a checkout: ``python3 -m pytest bench/tests -q``.
"""

import signal
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import gauge  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from eqrate import games, koth, skillsim, solvers  # noqa: E402


def _bytes(tmp_path, name, write, *seeds):
    path = tmp_path / name
    write(path, 12, 5, *seeds)
    return path.read_bytes()


def test_same_seeds_give_identical_files(tmp_path):
    for write in (inputs.write_preference_csv, inputs.write_koth_game):
        assert _bytes(tmp_path, "a", write, 3, 7) == _bytes(tmp_path, "b", write, 3, 7)
        assert _bytes(tmp_path, "a", write, 3, 7) != _bytes(tmp_path, "b", write, 3, 8)


def test_presentation_seed_only_permutes_the_game(tmp_path):
    csv_path, game_path = tmp_path / "prefs.csv", tmp_path / "game.json"
    inputs.write_preference_csv(csv_path, 12, 5, 3, 7)
    inputs.write_koth_game(game_path, 12, 5, 3, 8)
    from_csv = koth.build_koth(koth.read_preference_csv(csv_path)).u_king
    from_json = games.load_game(game_path).utilities[1]

    def canonical(u):
        return sorted(sorted(u[p].ravel().tolist()) for p in range(u.shape[0]))

    assert canonical(from_csv) == canonical(from_json)


def test_tracer_links_parents_and_restores_originals():
    fake = types.ModuleType("fake")
    fake.inner = lambda x: x + 1
    fake.outer = lambda x: fake.inner(x) * 2
    originals = (fake.outer, fake.inner)
    with spans.Tracer() as tracer:
        tracer.patch(fake, "outer", "outer")
        tracer.patch(fake, "inner", "inner")
        assert fake.outer(1) == 4
    assert (fake.outer, fake.inner) == originals
    outer, inner = tracer.spans
    assert (outer["name"], outer["parent"]) == ("outer", None)
    assert (inner["name"], inner["parent"]) == ("inner", outer["id"])
    assert spans.self_time(outer, tracer.spans) <= spans.duration(outer)


def test_every_layer_patch_is_restored():
    import run

    with spans.Tracer() as tracer:
        run._patch(tracer, traced=True)
        patched = list(tracer._saved)
        assert all(getattr(module, attr) is not fn for module, attr, fn in patched)
    assert all(getattr(module, attr) is fn for module, attr, fn in patched)
    # skillsim finds affinity_targets on itself and solve_lle on solvers
    assert {(skillsim, "affinity_targets"), (solvers, "solve_lle")} <= {(m, a) for m, a, _ in patched}


def test_tracer_records_errors_and_restores_on_exception():
    fake = types.SimpleNamespace(fail=lambda: 1 / 0)
    original = fake.fail
    tracer = spans.Tracer()
    try:
        with tracer:
            tracer.patch(fake, "fail", "fail")
            fake.fail()
    except ZeroDivisionError:
        pass
    assert fake.fail is original
    assert tracer.spans[0]["error"] == "ZeroDivisionError"


def test_only_a_warm_start_may_raise():
    import run

    def span(warm_start):
        return {"name": "solvers.lle", "error": "ConvergenceError", "warm_start": warm_start, "steps": 9}

    failures = []
    run._check_solves([span(True)], failures)
    assert failures == []
    run._check_solves([span(False)], failures)
    assert failures == ["solvers.lle raised ConvergenceError after 9 steps"]


def test_gauge_samples_during_the_block_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with gauge.Gauge() as speed:
        end = time.perf_counter() + 3.5 * gauge.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 2 and speed.reference_s() > 0
    assert 0 < speed.overhead < 3.5 * gauge.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gauge_samples_once_after_a_short_block():
    with gauge.Gauge() as speed:
        pass
    assert len(speed.samples) == 1 and speed.overhead == 0.0
