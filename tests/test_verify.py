import math

import numpy as np
import pytest

from mixwidth import SUITE_NAMES, run_suites, verify
from mixwidth.phi import PhiValue
from mixwidth.psi import BLOCK
from mixwidth.verify import _psi_suite, _rand_balls, _rand_instance
from verify_brute import brute_run_suites, reference_rand_balls


TRIALS = 60  # smoke-level trial count; the acceptance suite runs the full 500


def test_all_suites_pass():
    results = run_suites(seed=0, trials=TRIALS)
    assert [r.name for r in results] == list(SUITE_NAMES)
    for r in results:
        assert r.trials == TRIALS
        assert r.passed, (r.name, r.failures, r.worst_slack)


def test_deterministic_reports():
    a = run_suites(seed=4, trials=30)
    b = run_suites(seed=4, trials=30)
    assert [(r.name, r.failures, r.worst_slack) for r in a] == [
        (r.name, r.failures, r.worst_slack) for r in b
    ]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_forced_corruption_fails_named_suite(name):
    results = run_suites(seed=0, trials=20, corrupt=name)
    by_name = {r.name: r for r in results}
    assert not by_name[name].passed
    for other, r in by_name.items():
        if other != name:
            assert r.passed, (other, r.failures)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(trials=1, corrupt="nope")


@pytest.mark.parametrize("seed", range(6))
def test_matches_per_trial_reference(seed):
    # psi suites value their trials through psi_many; the reports must not move
    for trials in (1, 7, 64):
        assert run_suites(seed=seed, trials=trials) == brute_run_suites(seed=seed, trials=trials)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_corrupt_run_matches_per_trial_reference(name):
    got = run_suites(seed=3, trials=7, corrupt=name)
    assert got == brute_run_suites(seed=3, trials=7, corrupt=name)


def test_psi_suite_draws_trials_lazily():
    # a run must never hold all its trials: one block is drawn ahead at most
    drawn = []

    def draw(rng):
        drawn.append(_rand_instance(rng))
        return (drawn[-1],), lambda estimates, gain: 0.0

    slacks = _psi_suite(draw)(np.random.default_rng(0), 10**9, 1.0)
    assert next(slacks) == 0.0
    assert 1 <= len(drawn) <= BLOCK


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
        run_suites(seed=-1, trials=1)


@pytest.mark.parametrize("seed", range(3))
def test_ball_draws_match_reference(seed, monkeypatch):
    # the same balls from the same draws, and the generator left in the same
    # state; on a 1/4 grid most draws repeat a point, and 25 balls take every one
    for den, count in ((verify._DEN, 1), (verify._DEN, 4), (verify._DEN, 3000), (4, 25)):
        monkeypatch.setattr(verify, "_DEN", den)
        rng, ref = np.random.default_rng([seed, den]), np.random.default_rng([seed, den])
        assert _rand_balls(rng, count) == reference_rand_balls(ref, count)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_rel_gap_of_one_infinity():
    assert verify._rel_gap(math.inf, 1.0) == math.inf
    assert verify._rel_gap(2.0, math.inf) == math.inf
    assert verify._rel_gap(math.inf, math.inf) == 0.0


def test_branch_overlap_sees_a_missing_branch(monkeypatch):
    # a phi that names none of its holding branches: every reference branch
    # is missing from it, so each trial's slack is infinite
    phi = verify.phi
    monkeypatch.setattr(verify, "phi", lambda *args: PhiValue(phi(*args).value, ()))
    rng = np.random.default_rng(0)
    assert all(verify._branch_overlap(rng, 1.0) == math.inf for _ in range(20))
