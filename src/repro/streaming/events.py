"""Delta reports and ranking events for standing queries.

A :class:`DeltaReport` is the publication-side summary of one engine
update: which edge labels the delta touched and whether the node set
grew.  The subscription layer intersects it with each subscription's
pattern footprint to decide, in O(1), whether the update can possibly
move that subscription's ranking; if it can, the query re-runs.

A :class:`RankingEvent` is what subscribers receive: the new top-k plus
a structured diff against the previous notification (which nodes
entered, which left, which survivors changed position).
"""


class DeltaReport:
    """What one published engine update touched, for pruning decisions.

    Parameters
    ----------
    labels:
        Frozenset of edge labels the delta touched, or None when the
        update's effect is unknown (a full rebuild) — None matches every
        footprint.
    grew:
        True when the update added nodes.  Growth can shift
        floating-point results of shape-dependent reductions even for
        label-disjoint patterns, so growth-sensitive subscriptions treat
        a growing delta as relevant regardless of labels.
    """

    __slots__ = ("labels", "grew")

    def __init__(self, labels, grew):
        self.labels = labels
        self.grew = grew

    @classmethod
    def unknown(cls):
        """A report that matches every footprint (full rebuild/swap)."""
        return cls(labels=None, grew=True)

    def touches(self, footprint):
        """True when this update may move a ranking with ``footprint``.

        ``footprint`` is ``(labels, growth_sensitive)`` from
        :meth:`PreparedQuery.footprint`, or None for algorithms that can
        read the whole graph (wildcard — everything touches them).
        """
        if footprint is None or self.labels is None:
            return True
        labels, growth_sensitive = footprint
        if self.grew and growth_sensitive:
            return True
        return not self.labels.isdisjoint(labels)


class RankingEvent:
    """One notification: the new top-k plus a diff against the last one.

    ``type`` is ``"snapshot"`` for the initial ranking delivered at
    subscribe time and ``"update"`` afterwards.  ``items`` is the full
    new ranking as ``(node, score)`` tuples; ``entered``/``left`` are
    node lists, and ``reordered`` lists surviving nodes whose position
    changed.
    """

    __slots__ = ("type", "version", "items", "entered", "left", "reordered")

    def __init__(self, type, version, items, entered, left, reordered):
        self.type = type
        self.version = version
        self.items = items
        self.entered = entered
        self.left = left
        self.reordered = reordered

    def to_dict(self):
        """JSON-ready payload (scores as floats, nodes as-is)."""
        return {
            "type": self.type,
            "version": self.version,
            "ranking": [[node, float(score)] for node, score in self.items],
            "entered": list(self.entered),
            "left": list(self.left),
            "reordered": list(self.reordered),
        }


def diff_rankings(old_items, new_items):
    """``(entered, left, reordered)`` between two ranked item lists.

    ``entered`` preserves new-ranking order, ``left`` old-ranking order,
    and ``reordered`` lists survivors (new-ranking order) whose position
    among survivors changed — so a node that merely slid down because a
    newcomer entered above it is not reported as reordered.
    """
    old_nodes = [node for node, _ in old_items]
    new_nodes = [node for node, _ in new_items]
    old_set = set(old_nodes)
    new_set = set(new_nodes)
    entered = [node for node in new_nodes if node not in old_set]
    left = [node for node in old_nodes if node not in new_set]
    old_survivors = [node for node in old_nodes if node in new_set]
    new_survivors = [node for node in new_nodes if node in old_set]
    reordered = [
        node
        for node, previous in zip(new_survivors, old_survivors)
        if node != previous
    ]
    return entered, left, reordered
