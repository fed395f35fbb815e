"""Standing queries over the delta stream (push-based top-k).

See :mod:`repro.streaming.subscription` for the two maintenance rungs
(pruned or re-ranked) and the bitwise-identity contract.
"""

from repro.streaming.events import DeltaReport, RankingEvent, diff_rankings
from repro.streaming.subscription import Subscription, SubscriptionManager

__all__ = [
    "DeltaReport",
    "RankingEvent",
    "Subscription",
    "SubscriptionManager",
    "diff_rankings",
]
