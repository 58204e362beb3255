"""PL001 known-bad: writes through a detector's current bundle.

Every decision thread reads ``current_bundle(prom).evaluation_view()``
without a lock, so the bundle, its view and the kernel caches behind
the view are shared immutable state; each statement below writes into
it.
"""

from repro.core.segments import current_bundle


def corrupt_view(prom):
    """Writes through the evaluation view built over the bundle."""
    view = current_bundle(prom).evaluation_view()
    view.features.segments[0][0] = 0.0
    view.layouts[0].scores.gather_base()[:] = 1.0
    return view


def corrupt_bundle(prom):
    """Writes through the bundle the accessor hands out."""
    bundle = current_bundle(prom)
    bundle.group_counts[0][0] = 0
    bundle.fields["_labels"].segments[0].fill(0)
    return bundle
