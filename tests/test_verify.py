import pytest

from mixwidth import SUITE_NAMES, run_suites


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
