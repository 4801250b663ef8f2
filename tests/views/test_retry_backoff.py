"""Exponential, capped, jittered retry backoff (Algorithm 1 retries).

A fixed retry interval re-collides every contending propagation on the
same lock/chain state each round.  The replacement schedule doubles from
``RETRY_BACKOFF_MS`` up to ``RETRY_BACKOFF_CAP_MS`` and jitters each
delay into ``[d/2, d)`` from the deterministic ``view-propagation`` RNG
stream — so retries spread out, while identical
seeds still replay identically.
"""

from repro.views.manager import RETRY_BACKOFF_CAP_MS, RETRY_BACKOFF_MS

from tests.repair.conftest import build


def _delays(manager, rounds):
    return [manager._retry_delay(r) for r in rounds]


def test_backoff_is_jittered_within_round_bounds():
    manager = build().view_manager
    for _ in range(50):
        delay = manager._retry_delay(1)
        assert RETRY_BACKOFF_MS / 2 <= delay < RETRY_BACKOFF_MS
    for _ in range(50):
        delay = manager._retry_delay(100)  # far past the cap
        assert RETRY_BACKOFF_CAP_MS / 2 <= delay < RETRY_BACKOFF_CAP_MS


def test_backoff_grows_exponentially_until_cap():
    manager = build().view_manager
    # jitter maps the nominal delay d -> d * [0.5, 1.0); check each
    # round's delay against its nominal bounds.
    nominal = []
    for rounds in range(1, 10):
        delay = manager._retry_delay(rounds)
        nominal.append((delay, min(RETRY_BACKOFF_MS * 2.0 ** (rounds - 1),
                                   RETRY_BACKOFF_CAP_MS)))
    for delay, expected in nominal:
        assert expected / 2 <= delay < expected
    # 0.5 doubles to the 8.0 cap at round 5; later rounds stay capped.
    assert [expected for _, expected in nominal[:5]] == \
        [0.5, 1.0, 2.0, 4.0, 8.0]
    assert all(4.0 <= delay < 8.0 for delay, _ in nominal[4:])


def test_successive_retries_desynchronize():
    """The point of the jitter: two contenders drawing consecutive
    delays for the same round must not sleep identically."""
    manager = build().view_manager
    draws = _delays(manager, [3] * 10)
    assert len(set(draws)) > 1


def test_backoff_is_deterministic_across_identical_clusters():
    first = _delays(build().view_manager, range(1, 11))
    second = _delays(build().view_manager, range(1, 11))
    assert first == second


def test_contending_hot_key_workload_converges():
    """End-to-end: many same-key writers force guess retries; the
    jittered schedule must still converge the view (and the backoff cap
    bounds each wait)."""
    from repro.views import check_view
    from tests.repair.conftest import VIEW

    cluster = build()
    client = cluster.sync_client()
    for i in range(12):
        client.put("T", "hot", {"vk": f"g{i % 2}", "m": i}, w=2,
                   timestamp=i + 1)
    client.settle()
    assert check_view(cluster, VIEW) == []
    assert cluster.view_manager.abandoned_propagations == 0
