"""Standing-query subscriptions: the push-based incremental top-k layer.

Covers the two maintenance rungs (pruned, or re-ranked by a fallback
``prepared.run``), the notification contract (events only when the
ranking actually changes, callbacks off-thread), and the bitwise-parity
claim: a maintained ranking always equals a fresh ``prepared.run``.
"""

import threading

import pytest

from repro.api import SimilarityService, SimilaritySession
from repro.datasets import generate_dblp
from repro.exceptions import EvaluationError, UnknownNodeError
from repro.streaming import DeltaReport, RankingEvent, diff_rankings

PATTERN = "p-in.p-in-"  # paper-to-paper via shared proceedings
NODE = "paper:0"
TOP_K = 5


def _tiny_dblp():
    return generate_dblp(
        num_areas=3, num_procs=6, num_papers=36, num_authors=20, seed=0
    ).database


@pytest.fixture
def reference():
    """The oracle database: each test writes it beside the service."""
    return _tiny_dblp()


@pytest.fixture
def service(reference):
    return SimilarityService(reference)


@pytest.fixture
def watched(service):
    """A live pathsim subscription plus its collected events."""
    prepared = service.prepare(
        algorithm="pathsim", pattern=PATTERN, top_k=TOP_K
    )
    events = []
    subscription = service.subscribe(prepared, NODE, events.append)
    service.subscriptions.flush()
    return service, prepared, subscription, events


def _apply(service, reference, **delta):
    reference.apply_delta(**delta)
    return service.apply(**delta)


def _fresh_items(service, reference, node=NODE):
    """``node``'s ranking on a fresh session over the reference database.

    Also checks that the service serves exactly the reference's graph.
    """
    assert service.database.same_content(reference)
    session = SimilaritySession(reference)
    prepared = session.prepare(
        algorithm="pathsim", pattern=PATTERN, top_k=TOP_K
    )
    return prepared.run(node).items()


def _new_edge(database, label, source_type, target_type, exclude=()):
    """A (source, label, target) edge absent from ``database``."""
    for source in sorted(database.nodes_of_type(source_type)):
        if source in exclude:
            continue
        for target in sorted(database.nodes_of_type(target_type)):
            if target not in exclude and not database.has_edge(
                source, label, target
            ):
                return (source, label, target)
    raise AssertionError("fixture saturated; no absent edge found")


# ----------------------------------------------------------------------
# diff_rankings
# ----------------------------------------------------------------------


def test_diff_rankings_identical_is_empty():
    items = [("a", 2.0), ("b", 1.0)]
    assert diff_rankings(items, items) == ([], [], [])


def test_diff_rankings_entered_and_left():
    old = [("a", 2.0), ("b", 1.0)]
    new = [("x", 3.0), ("a", 2.0)]
    entered, left, reordered = diff_rankings(old, new)
    assert entered == ["x"]
    assert left == ["b"]
    # "a" slid down only because "x" entered above it: not a reorder.
    assert reordered == []


def test_diff_rankings_survivor_swap_is_reordered():
    old = [("a", 2.0), ("b", 1.0)]
    new = [("b", 2.0), ("a", 1.0)]
    entered, left, reordered = diff_rankings(old, new)
    assert (entered, left) == ([], [])
    assert reordered == ["b", "a"]


# ----------------------------------------------------------------------
# DeltaReport.touches
# ----------------------------------------------------------------------


def test_touches_wildcard_footprint_matches_everything():
    report = DeltaReport(labels=frozenset({"w"}), grew=False)
    assert report.touches(None)


def test_touches_unknown_report_matches_everything():
    assert DeltaReport.unknown().touches((frozenset({"p-in"}), False))


def test_touches_label_intersection():
    report = DeltaReport(labels=frozenset({"p-in"}), grew=False)
    assert report.touches((frozenset({"p-in", "r-a"}), False))
    assert not report.touches((frozenset({"w"}), False))


def test_touches_growth_sensitivity():
    grew = DeltaReport(labels=frozenset({"w"}), grew=True)
    assert grew.touches((frozenset({"p-in"}), True))
    assert not grew.touches((frozenset({"p-in"}), False))


def test_ranking_event_to_dict_shape():
    event = RankingEvent(
        "update", 3, [("a", 2.0), ("b", 1.0)], ["a"], ["c"], []
    )
    assert event.to_dict() == {
        "type": "update",
        "version": 3,
        "ranking": [["a", 2.0], ["b", 1.0]],
        "entered": ["a"],
        "left": ["c"],
        "reordered": [],
    }


# ----------------------------------------------------------------------
# Subscription lifecycle
# ----------------------------------------------------------------------


def test_subscribe_delivers_snapshot_event(watched):
    service, prepared, subscription, events = watched
    assert [event.type for event in events] == ["snapshot"]
    snapshot = events[0]
    assert snapshot.version == service.version
    assert snapshot.items == prepared.run(NODE).items()
    assert snapshot.entered == [node for node, _ in snapshot.items]
    assert (snapshot.left, snapshot.reordered) == ([], [])
    assert subscription.items() == snapshot.items
    assert subscription.active
    assert subscription.version == service.version
    assert subscription.top_k == TOP_K


def test_subscribe_unknown_node_raises_synchronously(service):
    prepared = service.prepare(algorithm="pathsim", pattern=PATTERN)
    with pytest.raises(UnknownNodeError):
        service.subscribe(prepared, "paper:no-such", lambda event: None)
    assert service.subscription_stats["active"] == 0


def test_subscribe_rejects_foreign_prepared_handles(service):
    session = SimilaritySession(service.database)
    foreign = session.prepare(algorithm="pathsim", pattern=PATTERN)
    with pytest.raises(EvaluationError):
        service.subscribe(foreign, NODE, lambda event: None)


def test_subscribe_defaults_top_k_from_prepared(service):
    prepared = service.prepare(
        algorithm="pathsim", pattern=PATTERN, top_k=3
    )
    subscription = service.subscribe(prepared, NODE)
    assert subscription.top_k == 3
    assert len(subscription.items()) <= 3


def test_cancel_detaches_the_subscription(watched):
    service, prepared, subscription, events = watched
    before = subscription.items()
    subscription.cancel()
    assert not subscription.active
    assert service.subscription_stats["active"] == 0
    # A ranking-moving delta no longer maintains or notifies.
    member = before[0][0]
    edge = next(
        (s, l, t) for (s, l, t) in service.database.edges("p-in")
        if s == member
    )
    service.apply(edges_removed=[edge])
    service.subscriptions.flush()
    assert subscription.items() == before
    assert [event.type for event in events] == ["snapshot"]
    subscription.cancel()  # idempotent


# ----------------------------------------------------------------------
# The maintenance ladder
# ----------------------------------------------------------------------


def test_footprint_disjoint_delta_is_pruned(watched, reference):
    service, prepared, subscription, events = watched
    assert prepared.footprint() == (frozenset({"p-in"}), False)
    edge = _new_edge(reference, "r-a", "paper", "area")
    _apply(service, reference, edges_added=[edge])
    service.subscriptions.flush()
    stats = subscription.stats()
    assert stats["pruned"] == 1
    assert (stats["fallbacks"], stats["notified"]) == (0, 0)
    assert [event.type for event in events] == ["snapshot"]
    assert subscription.version == service.version
    assert subscription.items() == _fresh_items(service, reference)


def test_relevant_delta_that_keeps_the_ranking_does_not_notify(
    watched, reference
):
    service, prepared, subscription, events = watched
    members = {node for node, _ in subscription.items()}
    # A p-in edge in a different proceedings: label-relevant, so the
    # query re-runs, but no member moves and no outsider enters.
    edge = _new_edge(
        reference, "p-in", "paper", "proc",
        exclude=members | {NODE, "proc:2"},
    )
    _apply(service, reference, edges_added=[edge])
    service.subscriptions.flush()
    stats = subscription.stats()
    assert (stats["fallbacks"], stats["notified"]) == (1, 0)
    assert [event.type for event in events] == ["snapshot"]
    assert subscription.items() == _fresh_items(service, reference)


def test_member_edge_removal_falls_back_and_notifies(watched, reference):
    service, prepared, subscription, events = watched
    before = subscription.items()
    member = before[0][0]
    edge = next(
        (s, l, t) for (s, l, t) in reference.edges("p-in")
        if s == member
    )
    _apply(service, reference, edges_removed=[edge])
    service.subscriptions.flush()
    stats = subscription.stats()
    assert stats["fallbacks"] == 1
    assert stats["notified"] == 1
    assert [event.type for event in events] == ["snapshot", "update"]
    update = events[1]
    assert update.version == service.version
    assert member in update.left
    assert update.items == subscription.items()
    assert subscription.items() == _fresh_items(service, reference)
    assert subscription.items() != before


def test_full_rebuild_swap_falls_back(watched, reference):
    service, prepared, subscription, events = watched
    service.swap(service.database)
    service.subscriptions.flush()
    stats = subscription.stats()
    assert stats["fallbacks"] == 1
    # An identical ranking after the swap must not notify.
    assert stats["notified"] == 0
    assert [event.type for event in events] == ["snapshot"]
    assert subscription.items() == _fresh_items(service, reference)


def test_a_delta_that_only_types_a_node_re_ranks():
    # A node wired in untyped, then typed: the typing delta touches no
    # edge and adds no node, yet the node joins the answer type's
    # candidates, so no subscription may be pruned past it.
    service = SimilarityService(generate_dblp(4, 10, 60, 30).database)
    prepared = service.prepare(
        algorithm="pathsim", pattern="p-in-.p-in", top_k=10
    )
    subscription = service.subscribe(prepared, "proc:0")
    paper = sorted(service.database.predecessors("proc:0", "p-in"))[0]
    service.apply(edges_added=[(paper, "p-in", "X")])
    service.apply(nodes_added=[("X", "proc")])
    service.subscriptions.flush()
    assert "X" in dict(prepared.run("proc:0").items())
    assert subscription.items() == prepared.run("proc:0").items()
    assert service.subscription_stats["pruned"] == 0


def test_poll_applies_one_maintenance_step(watched):
    service, prepared, subscription, events = watched
    subscription.poll(DeltaReport(labels=frozenset({"w"}), grew=False))
    assert subscription.stats()["pruned"] == 1
    subscription.poll()  # unknown report: full fallback re-rank
    stats = subscription.stats()
    assert stats["fallbacks"] == 1
    assert stats["notified"] == 0  # nothing changed


# ----------------------------------------------------------------------
# Notifier thread
# ----------------------------------------------------------------------


def test_callbacks_run_off_the_publishing_thread(service):
    prepared = service.prepare(
        algorithm="pathsim", pattern=PATTERN, top_k=TOP_K
    )
    threads = []
    service.subscribe(
        prepared, NODE, lambda event: threads.append(
            threading.current_thread()
        )
    )
    service.subscriptions.flush()
    assert len(threads) == 1
    assert threads[0] is not threading.main_thread()
    assert threads[0].name == "repro-subscription-notifier"


def test_callback_exception_is_counted_not_fatal(service):
    prepared = service.prepare(
        algorithm="pathsim", pattern=PATTERN, top_k=TOP_K
    )
    received = []

    def broken(event):
        raise RuntimeError("subscriber bug")

    service.subscribe(prepared, NODE, broken)
    healthy = service.subscribe(prepared, "paper:1", received.append)
    service.subscriptions.flush()
    assert service.subscription_stats["callback_errors"] == 1
    # The healthy subscriber still got its snapshot.
    assert [event.type for event in received] == ["snapshot"]
    assert healthy.active


def test_manager_close_stops_everything(service):
    prepared = service.prepare(
        algorithm="pathsim", pattern=PATTERN, top_k=TOP_K
    )
    subscription = service.subscribe(prepared, NODE, lambda event: None)
    service.subscriptions.flush()
    service.subscriptions.close()
    assert not subscription.active
    assert service.subscription_stats["active"] == 0


def test_subscription_stats_aggregates(watched):
    service, prepared, subscription, events = watched
    stats = service.subscription_stats
    assert stats["active"] == 1
    assert set(stats) == {
        "active", "notified", "pruned", "rescored", "fallbacks",
        "callback_errors",
    }
    assert stats["rescored"] == 0
