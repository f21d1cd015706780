"""The service schedule is a pure function of the seed."""

import pytest

import cases
import service


def _shape(arrivals):
    return [(round(a.due, 9), service._spec_id(a.spec), a.tenant, a.kind)
            for a in arrivals]


def test_same_seed_same_schedule():
    assert _shape(service.make_schedule(7, 20)) == \
        _shape(service.make_schedule(7, 20))


def test_different_seed_different_schedule():
    assert _shape(service.make_schedule(7, 20)) != \
        _shape(service.make_schedule(8, 20))


def test_shares_are_fixed():
    for seed in range(1, 6):
        arrivals = service.make_schedule(seed, 40)
        dups = [a for a in arrivals if a.kind == "dup"]
        fresh = [a for a in arrivals if a.kind != "dup"]
        warm = [a for a in fresh if a.kind == "warm"]
        assert len(dups) == round(cases.DUP_SHARE * len(arrivals))
        assert len(warm) == round(cases.WARM_SHARE * len(fresh))
        ids = [service._spec_id(a.spec) for a in fresh]
        assert len(ids) == len(set(ids)), "fresh points repeat"
        seen = set()
        for arrival in arrivals:
            spec_id = service._spec_id(arrival.spec)
            if arrival.kind == "dup":
                assert spec_id in seen, "a dup must follow its original"
                assert arrival.tenant != cases.TENANTS[0]
            seen.add(spec_id)


def test_a_pass_longer_than_the_grid_is_refused():
    with pytest.raises(ValueError, match="fresh points"):
        service.make_schedule(1, 1000)


def test_offered_load_matches_the_rate():
    for seed in range(5):
        arrivals = service.make_schedule(seed, 40)
        assert len(arrivals) == round(cases.SERVICE_RATE * 40)
        assert all(0 <= a.due < 40 for a in arrivals)
        assert all(0 <= a.phase < cases.POLL_S for a in arrivals)
