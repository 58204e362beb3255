"""Fixture-driven per-rule tests for the promlint analyzer.

Every rule PL001–PL005 is proven both ways against the checked-in
fixture files under ``tests/analysis/fixtures/``:

* the ``bad_*`` fixture fires, with the expected finding count and at
  least one anchored line — for PL002/PL003/PL004/PL005 the bad code is
  drawn from the pre-fix tree (git HEAD ``34bd3a7``): the verbatim
  `test_serving.py` blocking-hold helper, the verbatim pre-migration
  `committee.py`/`calibration_store.py` raises, the verbatim
  `warm_cache.py` wall-clock timing loop, and the verbatim `_ROUTERS`
  registry, locked in as regressions;
* the ``good_*`` fixture — the corresponding sanctioned idiom, also
  drawn from the real tree — stays silent.

PL001 had no pre-fix violation anywhere in the tree (the immutability
invariant held); its good fixture is the verbatim pre-fix
`test_segments.py` snapshot-read idiom, and its bad fixture is that
same code with the minimal invariant-breaking writes added.
"""

from pathlib import Path

import pytest

from repro.analysis import resolve_rules
from repro.analysis.engine import analyze_source

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_id, fixture_name):
    """Analyze one fixture file with a single rule."""
    path = FIXTURES / fixture_name
    result = analyze_source(
        path.read_text(), path, resolve_rules([rule_id]), display_path=fixture_name
    )
    assert not result.errors, result.errors
    return result


def finding_lines(result):
    return sorted({finding.line for finding in result.findings})


class TestPL001SnapshotMutation:
    def test_bad_fixture_fires_on_every_mutation(self):
        result = run_rule("PL001", "bad_snapshot.py")
        assert len(result.findings) == 10
        assert all(finding.rule_id == "PL001" for finding in result.findings)
        # one finding per mutating statement of churn_with_mutations
        assert finding_lines(result)[:7] == [15, 16, 17, 19, 20, 21, 22]

    def test_good_fixture_silent(self):
        result = run_rule("PL001", "good_snapshot.py")
        assert result.findings == []

    def test_current_bundle_and_its_view_are_sources(self):
        result = run_rule("PL001", "bad_bundle_view.py")
        assert all(finding.rule_id == "PL001" for finding in result.findings)
        # two writes through the view, two through the bare bundle
        assert finding_lines(result) == [15, 16, 23, 24]

    def test_alias_and_loop_propagation(self):
        result = run_rule("PL001", "bad_snapshot.py")
        messages = [finding.message for finding in result.findings]
        assert any("held" in message for message in messages)
        assert any("block" in message for message in messages)


class TestPL002LockDiscipline:
    def test_bad_fixture_fires(self):
        result = run_rule("PL002", "bad_locks.py")
        assert len(result.findings) == 9
        assert all(finding.rule_id == "PL002" for finding in result.findings)

    def test_prefix_tree_blocking_hold_regression(self):
        """The verbatim pre-fix test_serving.py helper is a true positive."""
        result = run_rule("PL002", "bad_locks.py")
        wait_findings = [
            finding
            for finding in result.findings
            if "wait" in finding.message and finding.line == 15
        ]
        assert len(wait_findings) == 1

    def test_good_fixture_silent(self):
        result = run_rule("PL002", "good_locks.py")
        assert result.findings == []

    def test_descending_and_unprovable_nesting_flagged(self):
        result = run_rule("PL002", "bad_locks.py")
        nested = [
            finding for finding in result.findings if "nested" in finding.message
        ]
        assert len(nested) == 2


class TestPL003ExceptionTaxonomy:
    def test_prefix_tree_raises_are_true_positives(self):
        """Verbatim pre-migration committee/calibration_store raises fire."""
        result = run_rule("PL003", "core/bad_taxonomy.py")
        assert len(result.findings) == 3
        messages = [finding.message for finding in result.findings]
        assert sum("ValueError" in message for message in messages) == 2
        assert sum("RuntimeError" in message for message in messages) == 1

    def test_taxonomy_idiom_silent(self):
        result = run_rule("PL003", "core/good_taxonomy.py")
        assert result.findings == []

    def test_rule_is_core_scoped(self):
        source = FIXTURES.joinpath("core", "bad_taxonomy.py").read_text()
        outside_core = analyze_source(
            source, "pkg/not_core.py", resolve_rules(["PL003"]), is_core=False
        )
        assert outside_core.findings == []


class TestPL004Determinism:
    def test_bad_fixture_fires(self):
        result = run_rule("PL004", "core/bad_determinism.py")
        assert len(result.findings) == 5
        messages = " ".join(finding.message for finding in result.findings)
        assert "time.time" in messages
        assert "default_rng" in messages
        assert "numpy.random.shuffle" in messages
        assert "random.random" in messages

    def test_prefix_tree_wall_clock_regression(self):
        """The verbatim warm_cache.py timing loop is a true positive."""
        result = run_rule("PL004", "core/bad_determinism.py")
        assert [
            finding.line
            for finding in result.findings
            if "time.time" in finding.message
        ] == [18, 20]

    def test_good_fixture_silent(self):
        result = run_rule("PL004", "core/good_determinism.py")
        assert result.findings == []


class TestPL005MutableSharedState:
    def test_prefix_tree_registry_is_true_positive(self):
        """The verbatim pre-fix _ROUTERS registry (no suppression) fires."""
        result = run_rule("PL005", "core/bad_shared_state.py")
        assert len(result.findings) == 3
        messages = [finding.message for finding in result.findings]
        assert any("_ROUTERS" in message for message in messages)
        assert any("_PENDING_JOBS" in message for message in messages)
        assert any("mutable default" in message for message in messages)

    def test_good_fixture_silent(self):
        """Tuples, audited suppression, and None defaults stay silent."""
        result = run_rule("PL005", "core/good_shared_state.py")
        assert result.findings == []
        assert len(result.suppressed) == 1
        assert result.suppressed[0].rule_id == "PL005"


@pytest.mark.parametrize(
    "rule_id, bad, good",
    [
        ("PL001", "bad_snapshot.py", "good_snapshot.py"),
        ("PL002", "bad_locks.py", "good_locks.py"),
        ("PL003", "core/bad_taxonomy.py", "core/good_taxonomy.py"),
        ("PL004", "core/bad_determinism.py", "core/good_determinism.py"),
        ("PL005", "core/bad_shared_state.py", "core/good_shared_state.py"),
    ],
)
def test_every_rule_fires_bad_and_stays_silent_good(rule_id, bad, good):
    """The acceptance-criterion matrix: each rule, both directions."""
    assert run_rule(rule_id, bad).findings, f"{rule_id} missed {bad}"
    assert not run_rule(rule_id, good).findings, f"{rule_id} fired on {good}"
