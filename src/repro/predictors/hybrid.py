"""Hybrid predictor with the paper's perfect hybridization.

The study assumes: *"if any of our predictors correctly predicts an LCD
value, we assume we have a correct prediction"* (§III-C). This module also
provides a realistic confidence-counter hybrid as an extension, used by the
predictor-ablation benchmark.
"""

from __future__ import annotations

from .base import ValuePredictor, simulate
from .fcm import FCMPredictor
from .last_value import LastValuePredictor
from .stride import StridePredictor
from .two_delta import TwoDeltaStridePredictor


# Table bound of the default order-2 FCM (must match FCMPredictor's
# ``max_table`` default — the fused fast path below replicates it).
_FCM_MAX_TABLE = 65536


def default_predictors():
    """The paper's four predictors, freshly constructed."""
    return [
        LastValuePredictor(),
        StridePredictor(),
        TwoDeltaStridePredictor(),
        FCMPredictor(order=2, max_table=_FCM_MAX_TABLE),
    ]


def perfect_hybrid_flags(values, predictors=None):
    """Per-element correctness under perfect hybridization.

    Element ``i`` is ``True`` when *any* predictor, trained online on
    ``values[:i]``, produced exactly ``values[i]``.

    The default-predictor case runs a fused loop over all four predictors
    rather than four :func:`simulate` passes — the predictors are
    independent, so interleaving them (and short-circuiting the *predict*
    side once one hits; training still always happens) is exact. This path
    dominates evaluation warm-up, hence the hand-inlining.
    """
    if predictors is not None:
        if not values:
            return []
        per_predictor = [simulate(p, values) for p in predictors]
        return [any(flags) for flags in zip(*per_predictor)]
    if not values:
        return []
    flags = []
    append = flags.append
    # Last-value predictor state.
    lv_last = None
    lv_seen = False
    # Stride predictor state.
    st_last = None
    st_stride = None
    # 2-delta stride predictor state.
    td_last = None
    td_stride = None
    td_candidate = None
    # Order-2 FCM state (unbounded table, bounded by FCM_MAX_TABLE).
    fcm_h1 = None
    fcm_h2 = None
    fcm_count = 0
    fcm_table = {}
    fcm_max = _FCM_MAX_TABLE
    for value in values:
        # -- predict (pure; short-circuit once any component hits) --
        # A None prediction is "no prediction", never a hit (matches
        # ``simulate``'s ``prediction is not None`` guard).
        hit = lv_last is not None and lv_last == value
        if not hit and st_stride is not None and st_last is not None:
            hit = (st_last + st_stride) == value
        if not hit and td_stride is not None and td_last is not None:
            try:
                hit = (td_last + td_stride) == value
            except (TypeError, OverflowError):
                pass  # a prediction the arithmetic cannot form is none
        if not hit and fcm_count == 2:
            predicted = fcm_table.get((fcm_h1, fcm_h2))
            hit = predicted is not None and predicted == value
        append(hit)
        # -- train (always, every component) --
        if lv_seen:
            # Stride: delta against the previous value.
            try:
                st_stride = value - st_last
            except (TypeError, OverflowError):
                st_stride = None
            # 2-delta: the predicting stride only updates once the same new
            # stride repeats (or on first observation).
            if st_stride is not None:
                observed = st_stride
                if observed == td_candidate:
                    td_stride = observed
                elif td_stride is None:
                    td_stride = observed
                    td_candidate = observed
                else:
                    td_candidate = observed
        st_last = value
        td_last = value
        lv_last = value
        lv_seen = True
        if fcm_count == 2:
            context = (fcm_h1, fcm_h2)
            if len(fcm_table) < fcm_max or context in fcm_table:
                fcm_table[context] = value
            fcm_h1 = fcm_h2
            fcm_h2 = value
        elif fcm_count == 1:
            fcm_h2 = value
            fcm_count = 2
        else:
            fcm_h1 = value
            fcm_count = 1
    return flags


def perfect_hybrid_accuracy(values, predictors=None):
    flags = perfect_hybrid_flags(values, predictors)
    return (sum(flags) / len(flags)) if flags else 0.0


class ConfidenceHybridPredictor(ValuePredictor):
    """Realistic hybrid: saturating confidence counters pick one component.

    Each component predictor keeps a 0..``ceiling`` counter, incremented on a
    hit and decremented on a miss; the highest-confidence component whose
    counter clears ``threshold`` makes the prediction. Provided as the
    "more realistic hybridization scheme" the paper mentions leaving open.
    """

    name = "confidence-hybrid"

    def __init__(self, predictors=None, threshold=2, ceiling=7):
        self.components = predictors if predictors is not None else default_predictors()
        self.threshold = threshold
        self.ceiling = ceiling
        self.confidence = [0] * len(self.components)

    def predict(self):
        best_index = None
        best_confidence = self.threshold - 1
        for index, component in enumerate(self.components):
            if (
                self.confidence[index] > best_confidence
                and component.predict() is not None
            ):
                best_confidence = self.confidence[index]
                best_index = index
        if best_index is None:
            return None
        return self.components[best_index].predict()

    def train(self, actual):
        for index, component in enumerate(self.components):
            prediction = component.predict()
            if prediction is not None and prediction == actual:
                self.confidence[index] = min(self.ceiling, self.confidence[index] + 1)
            else:
                self.confidence[index] = max(0, self.confidence[index] - 1)
            component.train(actual)

    def reset(self):
        for component in self.components:
            component.reset()
        self.confidence = [0] * len(self.components)
