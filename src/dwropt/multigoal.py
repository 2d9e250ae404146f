"""Combination of several goal functionals into one error functional.

Per-goal deviations from enriched reference evaluations are scaled by
the inverse magnitude of the goal at a freeze point and summed, which
prevents cancellation between goals.  The absolute values in that sum
are made differentiable by freezing their signs at the freeze point;
signs and weights are refreshed whenever the freeze point moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeightDegeneracyError


@dataclass(frozen=True)
class CombinedGoal:
    """Sign-frozen differentiable realization of the combined functional.

    The functional is sum_l s_l (r_l - I_l(u, q)) / w_l with r_l evaluated on
    enriched spaces, w_l = |I_l(freeze)| (or 1 on degeneracy) and s_l the
    deviation sign at the freeze point.  At the freeze point the value
    coincides with the absolute-value form exactly.  Its derivative forms
    ``iu_fields`` and ``iq_fields`` are single vector forms, the members'
    forms scaled by -s_l / w_l and summed pointwise, so assembling one
    costs one quadrature sweep however many goals are combined.
    """

    goals: tuple
    refs: tuple
    freeze_values: tuple
    weights: tuple
    signs: tuple

    @property
    def iu_fields(self):
        return self._scaled_sum([g.iu_fields for g in self.goals])

    @property
    def iq_fields(self):
        return self._scaled_sum([g.iq_fields for g in self.goals])

    def _scaled_sum(self, forms):
        """The members' forms times -s_l / w_l as one form; None if none has one."""
        terms = [(-s / w, f) for f, s, w in zip(forms, self.signs, self.weights)
                 if f is not None]
        if not terms:
            return None

        def fields(ctx):
            g_sum = h_sum = None
            for c, form in terms:
                g, h = form(ctx)
                if g is not None:
                    g_sum = c * g if g_sum is None else g_sum + c * g
                if h is not None:
                    h_sum = c * h if h_sum is None else h_sum + c * h
            return g_sum, h_sum

        return fields

    def value_at_freeze(self):
        """Combined relative deviation at the freeze point (nonnegative)."""
        return float(sum(self.relative_deviations()))

    def relative_deviations(self):
        """Per-goal |r_l - I_l(freeze)| / w_l."""
        return tuple(
            abs(r - f) / w
            for r, f, w in zip(self.refs, self.freeze_values, self.weights)
        )

    def reference_error(self):
        """Combined-functional error against the member reference values.

        The functional at the exact solution minus its value at the freeze
        point; None when any member lacks a reference value.
        """
        if any(g.reference is None for g in self.goals):
            return None
        return float(
            sum(
                s * (f - g.reference) / w
                for g, f, s, w in zip(
                    self.goals, self.freeze_values, self.signs, self.weights
                )
            )
        )

    def refreeze(self, u, q):
        """Same references, signs and weights refrozen at (u, q)."""
        return _freeze(self.goals, self.refs, tuple(g.value(u, q) for g in self.goals))


def _freeze(goals, refs, freeze_values):
    return CombinedGoal(
        goals=tuple(goals),
        refs=tuple(refs),
        freeze_values=freeze_values,
        weights=tuple(abs(f) or 1.0 for f in freeze_values),  # 1 for a zero value
        signs=tuple(1.0 if r - f >= 0.0 else -1.0
                    for r, f in zip(refs, freeze_values)),
    )


def build_combined(goals, enriched_eval):
    """Combined goal with its references at the enriched solution, frozen there.

    Each goal is evaluated once; refreeze moves the freeze point.
    """
    u2, q2 = enriched_eval
    refs = tuple(g.value(u2, q2) for g in goals)
    if not all(np.isfinite(refs)):
        raise WeightDegeneracyError("non-finite enriched goal evaluation")
    return _freeze(goals, refs, refs)
