"""Metric-name catalog: constants, kinds, and the no-literals scan."""

import pathlib
import re

from repro.obs import names
from repro.obs.metrics import MetricsRegistry

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: A metric registered/observed with an inline string literal — the
#: exact drift this module exists to prevent (see names.py docstring).
#: ``\s`` spans line breaks, so a literal on the line after the call is
#: caught.  Of the ``observe`` methods only a registry's takes a metric
#: name (a histogram's takes a value, a ``HealthScorer``'s a key).
_LITERAL_CALL = re.compile(
    r"""(?:\.\s*(?:counter|gauge|histogram)"""
    r"""|(?:METRICS|registry)\s*\.\s*observe)\(\s*f?["']"""
)


def test_every_constant_is_cataloged_with_a_kind():
    constants = {
        value for key, value in vars(names).items()
        if key.isupper() and isinstance(value, str)
        and key not in ("COUNTER", "GAUGE", "HISTOGRAM")
    }
    cataloged = set(names.SERIES)
    assert constants == cataloged
    assert set(names.SERIES.values()) <= {
        names.COUNTER, names.GAUGE, names.HISTOGRAM
    }


def test_preregister_renders_every_series_at_zero():
    registry = MetricsRegistry()
    names.preregister(registry)
    rendered = {metric.name for metric in registry}
    assert rendered == set(names.SERIES)
    # Idempotent, and kinds stick (a second pass must not collide).
    names.preregister(registry)
    assert registry.scalars()[names.FLIGHT_RECORDS] == 0.0
    assert registry.histogram(names.ATTR_OP_NS).summary()["count"] == 0


def test_no_string_literal_metric_calls_outside_names_module():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "names.py":
            continue
        text = path.read_text()
        for match in _LITERAL_CALL.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            call = text[text.rfind("\n", 0, match.start()) + 1:
                        text.find("\n", match.end())]
            offenders.append(f"{path.relative_to(SRC)}:{lineno}: "
                             f"{' '.join(call.split())}")
    assert offenders == [], (
        "metric calls must use repro.obs.names constants:\n"
        + "\n".join(offenders)
    )


def test_journal_occupancy_drift_is_fixed():
    # The historical dotted name must be gone from the catalog: the
    # whole family is underscore-flat per DESIGN.md §8.
    assert names.PROXY_JOURNAL_OCCUPANCY == "proxy.journal_occupancy"
    assert "proxy.journal.occupancy" not in names.SERIES
    dotted = [n for n in names.SERIES if n.count(".") > 1
              and not n.startswith("attr.phase_ns.")]
    assert dotted == [], dotted
