"""Hypothesis property tests for the lease/claim protocol invariants.

The lease protocol (``repro.eval.distributed.LeaseDir``) is driven over a
*simulated* clock (the injectable ``clock=``) and a real shared tmpdir,
replaying random interleavings of claim / renew / release / clock-advance
across several workers.  The invariants pinned here:

* **single ownership** -- at no point do two workers both believe they
  hold the same key, unless the earlier owner stalled past its TTL
  without renewing (the fundamental lease caveat, which the run loop
  makes harmless via the store re-check).
* **liveness** -- a key whose owner vanishes (crash: the worker simply
  stops renewing) becomes claimable by anyone after TTL + epsilon.
* **torn claim records** -- an empty or unparsable lease body (a
  damaged claim record) is expired immediately, regardless of mtime, so a
  torn file can never wedge a cell forever.  This behaviour is pinned:
  changing it silently would re-introduce the wedge.
"""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.eval.distributed import LeaseDir

TTL = 10.0
#: Slack added when stepping the simulated clock across the TTL boundary,
#: comfortably above float rounding at the simulated epoch (~1e-10).
EPSILON = 1e-3

#: Random protocol scripts: each step is (worker index, action) and the
#: simulated clock advances by ``dt`` seconds in between.
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which worker acts
        st.sampled_from(["claim", "renew", "release", "crash"]),
        st.floats(min_value=0.0, max_value=8.0),  # clock advance after
    ),
    min_size=1,
    max_size=30,
)


class SimClock:
    def __init__(self):
        self.now = 1_000_000.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SimWorker:
    """One worker identity with local belief about the keys it owns."""

    def __init__(self, root, name, clock):
        self.name = name
        self.leases = LeaseDir(root, name, ttl_s=TTL, clock=clock)
        self.owned = set()  #: keys this worker believes it holds
        self.last_renew = {}  #: key -> sim time of last heartbeat

    def claim(self, key, now):
        if self.leases.try_claim(key) in ("claimed", "reclaimed"):
            self.owned.add(key)
            self.last_renew[key] = now

    def renew(self, now):
        lost = set(self.leases.renew())
        self.owned -= lost
        for key in self.owned:
            self.last_renew[key] = now

    def release(self, key):
        if key in self.owned:
            self.leases.release(key)
            self.owned.discard(key)

    def crash(self):
        # A crash is just the absence of future renews/releases: the
        # lease files stay behind exactly as a SIGKILL would leave them.
        self.owned.clear()
        self.leases._held.clear()


@settings(max_examples=40, deadline=None)
@given(script=steps)
def test_no_two_live_owners_under_random_interleavings(tmp_path_factory, script):
    """Ownership is exclusive unless an owner outlived its TTL un-renewed.

    Whenever two workers simultaneously believe they own the same key,
    the earlier owner must have gone longer than TTL (in simulated time)
    without a successful renewal -- i.e. only a *stalled* owner can ever
    be raced, never a live one.
    """
    root = tmp_path_factory.mktemp("leases")
    clock = SimClock()
    workers = [SimWorker(root, f"w{i}", clock) for i in range(3)]
    key = "cell"
    for index, action, dt in script:
        worker = workers[index]
        now = clock()
        if action == "claim":
            worker.claim(key, now)
        elif action == "renew":
            worker.renew(now)
        elif action == "release":
            worker.release(key)
        elif action == "crash":
            worker.crash()
        owners = [w for w in workers if key in w.owned]
        if len(owners) > 1:
            # The protocol admits multiple believers only when all but the
            # newest stalled past the TTL without renewing.
            owners.sort(key=lambda w: w.last_renew[key])
            for stale in owners[:-1]:
                stalled_for = now - stale.last_renew[key]
                assert stalled_for > TTL, (
                    f"{stale.name} was raced while live: last renew "
                    f"{stalled_for:.3f}s ago (TTL {TTL}s); owners "
                    f"{[w.name for w in owners]}"
                )
        clock.advance(dt)


@settings(max_examples=40, deadline=None)
@given(
    advance=st.floats(min_value=0.0, max_value=100.0),
    renews=st.integers(min_value=0, max_value=5),
)
def test_abandoned_key_becomes_claimable_after_ttl(tmp_path_factory, advance, renews):
    """Liveness: once an owner stops renewing, TTL + epsilon unlocks the key."""
    assume(abs(advance - TTL) > EPSILON)  # stay off the exact expiry boundary
    root = tmp_path_factory.mktemp("leases")
    clock = SimClock()
    owner = LeaseDir(root, "owner", ttl_s=TTL, clock=clock)
    assert owner.try_claim("cell") == "claimed"
    for _ in range(renews):
        clock.advance(TTL / 4.0)
        assert owner.renew() == []
    # The owner crashes here (never renews again); time passes.
    clock.advance(advance)
    claimant = LeaseDir(root, "claimant", ttl_s=TTL, clock=clock)
    outcome = claimant.try_claim("cell")
    if advance > TTL:
        assert outcome == "reclaimed"
    else:
        assert outcome is None
        # ... and waiting out the remaining TTL always unlocks it.
        clock.advance(TTL - advance + EPSILON)
        assert claimant.try_claim("cell") == "reclaimed"


@settings(max_examples=40, deadline=None)
@given(body=st.binary(max_size=64))
def test_torn_claim_records_are_expired_regardless_of_mtime(tmp_path_factory, body):
    """Any lease body that is not a valid claim record is expired instantly.

    A damaged claim record can hold a prefix of the body (or nothing).  Whatever bytes remain -- pinned for
    *arbitrary* junk here, fresh mtime and all -- the next claimant must
    be able to take the cell over immediately.
    """
    try:
        parsed = json.loads(body.decode("utf-8"))
        is_valid = isinstance(parsed, dict) and "worker" in parsed
    except (ValueError, UnicodeDecodeError):
        is_valid = False
    root = tmp_path_factory.mktemp("leases")
    clock = SimClock()
    leases = LeaseDir(root, "claimant", ttl_s=TTL, clock=clock)
    root.mkdir(parents=True, exist_ok=True)
    (root / "cell.lease").write_bytes(body)
    state = leases.read("cell")
    assert state is not None
    if is_valid:
        # Degenerate corner: random bytes that *are* a claim record parse
        # as a live lease (fresh mtime) -- exercised for completeness.
        assert not state.torn
        return
    assert state.torn
    assert leases.is_expired(state)
    assert leases.try_claim("cell") == "reclaimed"
    assert leases.held_keys == ["cell"]


def test_release_is_idempotent_and_scoped_to_own_claim(tmp_path):
    """Releasing twice, or without a claim, never disturbs another owner."""
    a = LeaseDir(tmp_path, "a", ttl_s=TTL)
    b = LeaseDir(tmp_path, "b", ttl_s=TTL)
    assert a.try_claim("cell") == "claimed"
    b.release("cell")  # b never claimed: must be a no-op
    assert a.held_keys == ["cell"]
    assert b.try_claim("cell") is None  # a still owns it
    a.release("cell")
    a.release("cell")  # idempotent
    assert b.try_claim("cell") == "claimed"


def test_stalled_owner_cannot_release_or_renew_the_thiefs_lease(tmp_path):
    """After a reclaim, the previous owner's renew/release are inert."""
    clock = SimClock()
    stalled = LeaseDir(tmp_path, "stalled", ttl_s=TTL, clock=clock)
    assert stalled.try_claim("cell") == "claimed"
    clock.advance(TTL * 3)
    thief = LeaseDir(tmp_path, "thief", ttl_s=TTL, clock=clock)
    assert thief.try_claim("cell") == "reclaimed"
    assert stalled.renew() == ["cell"]  # loss detected, thief untouched
    stalled.release("cell")  # belated release: must not unlink thief's file
    state = thief.read("cell")
    assert state is not None and state.worker == "thief"
    assert thief.renew() == []
