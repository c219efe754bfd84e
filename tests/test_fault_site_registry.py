"""The generated fault-site registry: content, freshness, chaos coverage."""

from __future__ import annotations

import json
from fnmatch import fnmatch
from pathlib import Path

from repro.lint import Project, build_registry, render_markdown
from repro.lint.rules.rep002_fault_sites import _iter_chaos_globs

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _project() -> Project:
    return Project.from_paths(REPO_ROOT, [SRC])


class TestRegistryContent:
    def test_known_sites_are_discovered(self):
        registry = build_registry(_project())
        sites = {entry["site"] for entry in registry["sites"]}
        # One site per durability subsystem grown across the PR stack.
        for expected in (
            "serialization.dump_json",
            "serialization.save_npz",
            "service.jobs.persist",
            "rom_cache.put",
            "service.pool.worker",
            "cli.spec.write",
            "client.fetch_fields",
        ):
            assert expected in sites, f"missing fault site {expected}"
        # The f-string backend site registers as a glob pattern.
        backend = next(
            entry for entry in registry["sites"] if entry["site"] == "fem.backends.*"
        )
        assert backend["kind"] == "pattern"

    def test_every_site_has_a_source_location(self):
        registry = build_registry(_project())
        for entry in registry["sites"]:
            assert entry["locations"], entry["site"]
            for location in entry["locations"]:
                assert (REPO_ROOT / location["path"]).is_file()
                assert location["line"] >= 1


class TestRegistryFreshness:
    """Regenerate-and-diff: the committed registry must match the source."""

    def test_committed_json_is_fresh(self):
        committed = json.loads((REPO_ROOT / "docs" / "fault_sites.json").read_text())
        regenerated = build_registry(_project())
        assert committed == regenerated, (
            "docs/fault_sites.json is stale — regenerate with "
            "`python -m repro lint --write-registry docs`"
        )

    def test_committed_markdown_is_fresh(self):
        committed = (REPO_ROOT / "docs" / "fault_sites.md").read_text()
        regenerated = render_markdown(build_registry(_project()))
        assert committed == regenerated, (
            "docs/fault_sites.md is stale — regenerate with "
            "`python -m repro lint --write-registry docs`"
        )


class TestChaosCoverage:
    def test_every_chaos_glob_matches_a_registered_site(self):
        project = _project()
        registry = build_registry(project)
        sites = [entry["site"] for entry in registry["sites"]]
        chaos = project.module_at("repro/chaos.py")
        assert chaos is not None
        globs = list(_iter_chaos_globs(chaos))
        assert globs, "chaos scenarios declare no fault sites?"
        for glob, line in globs:
            assert any(fnmatch(site, glob) for site in sites), (
                f"chaos glob {glob!r} (chaos.py:{line}) matches no registered site"
            )
