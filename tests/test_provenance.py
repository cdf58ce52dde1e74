"""Tests for benchmark provenance (``repro.bench.ledger``).

``perf/run.py`` stamps every ``BENCH_e2e_*.json`` payload with
:func:`collect_provenance` and writes it through :func:`sanitize`;
``repro version`` prints :func:`package_version`.  The git cases build
their own repository (or none), so they pass in any copy of the source
tree, checkout or not.
"""

import json
import re
import shutil
import subprocess

import pytest

from repro.bench import (
    collect_provenance,
    fingerprint_of,
    package_version,
    sanitize,
)

needs_git = pytest.mark.skipif(
    shutil.which("git") is None, reason="git is not installed"
)


@pytest.fixture
def no_outer_repo(tmp_path, monkeypatch):
    """Keep git from discovering a repository above ``tmp_path``."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    return tmp_path


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


class TestProvenance:
    @needs_git
    def test_carries_git_and_fingerprint(self, no_outer_repo):
        repo = no_outer_repo
        _git(repo, "init", "-q")
        _git(
            repo, "-c", "user.name=t", "-c", "user.email=t@example.com",
            "commit", "-q", "--allow-empty", "-m", "init",
        )
        prov = collect_provenance(str(repo))
        assert prov["git_sha"] == _git(repo, "rev-parse", "HEAD")
        assert len(prov["git_sha"]) == 40
        assert prov["git_branch"] == _git(
            repo, "rev-parse", "--abbrev-ref", "HEAD"
        )
        assert prov["git_dirty"] is False
        assert prov["fingerprint"] == fingerprint_of(
            prov["hostname"], prov["cpu_count"], prov["machine"],
            prov["python"],
        )
        assert prov["timestamp_utc"].endswith("+00:00")
        assert prov["repro_version"] == package_version()

        (repo / "untracked.txt").write_text("x")
        assert collect_provenance(str(repo))["git_dirty"] is True

    def test_outside_a_checkout_git_fields_are_none(self, no_outer_repo):
        prov = collect_provenance(str(no_outer_repo))
        assert prov["git_sha"] is None
        assert prov["git_branch"] is None
        assert prov["git_dirty"] is False
        assert prov["fingerprint"] and prov["repro_version"]

    def test_fingerprint_is_stable_and_discriminating(self):
        a = fingerprint_of("h", 8, "x86_64", "3.11.1")
        assert a == fingerprint_of("h", 8, "x86_64", "3.11.1")
        assert a != fingerprint_of("h", 4, "x86_64", "3.11.1")


class TestSanitize:
    def test_sanitize_helper(self):
        out = sanitize({"a": [1.0, float("nan")], "b": float("-inf")})
        assert out == {"a": [1.0, None], "b": None}

    def test_nonfinite_floats_round_trip_as_strict_json(self):
        doc = {"ratio": float("nan"), "worst": float("inf"), 3: (1, 2.5)}
        raw = json.dumps(sanitize(doc), allow_nan=False)
        assert "NaN" not in raw and "Infinity" not in raw
        parsed = json.loads(
            raw, parse_constant=lambda c: pytest.fail(f"token {c}")
        )
        assert parsed == {"ratio": None, "worst": None, "3": [1, 2.5]}


def test_package_version():
    assert re.match(r"\d+\.\d+\.\d+", package_version())
