"""The docs site is checked, not trusted.

``scripts/check_docs.py`` is the single gate: every relative link in
``docs/*.md`` and ``README.md`` must resolve, the capability matrix
in ``docs/capabilities.md`` must match what the live mapping registry
renders, every ``--flag`` in ``docs/cli.md`` must exist on the
``repro`` parser, every ``*.md`` path the code names must exist, and
every ``repro`` import in a python block of the docs must resolve.
These tests run the script the way CI does (a subprocess, so its exit
codes and argument parsing are covered too) and pin the drift, flag,
cited-document and doc-import checks' teeth on doctored copies.
"""

import glob
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run_check(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "scripts", "check_docs.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_docs_links_resolve_and_matrix_is_fresh():
    proc = _run_check()
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _checkout(tmp_path):
    """A copy of the docs, scripts and top-level documents (``src`` linked)."""
    for name in ("docs", "scripts"):
        shutil.copytree(os.path.join(REPO_ROOT, name), tmp_path / name)
    for document in glob.glob(os.path.join(REPO_ROOT, "*.md")):
        shutil.copy(document, tmp_path)
    os.symlink(os.path.join(REPO_ROOT, "src"), tmp_path / "src")


def _doctored_checkout(tmp_path, page, old, new):
    """:func:`_checkout` with one edit to ``docs/<page>``, the way a stale
    page would read; returns the page."""
    _checkout(tmp_path)
    path = tmp_path / "docs" / page
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    return path


def _run_copy(tmp_path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "check_docs.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_drifted_matrix_fails_and_write_repairs_it(tmp_path):
    capabilities = _doctored_checkout(
        tmp_path, "capabilities.md", "| `simple` | yes |", "| `simple` | no |"
    )
    drifted = _run_copy(tmp_path)
    assert drifted.returncode == 1
    assert "drifted" in drifted.stderr

    repaired = _run_copy(tmp_path, "--write")
    assert repaired.returncode == 0, repaired.stdout + repaired.stderr
    assert "| `simple` | yes |" in capabilities.read_text(encoding="utf-8")


def test_stale_cli_flag_fails(tmp_path):
    _doctored_checkout(
        tmp_path, "cli.md", "`--batch-size N`", "`--batch-size N`, `--batch-wait-ms MS`"
    )
    stale = _run_copy(tmp_path)
    assert stale.returncode == 1
    assert "--batch-wait-ms is not an option" in stale.stderr
    assert "--batch-size" not in stale.stderr


def test_code_naming_a_missing_document_fails(tmp_path):
    _checkout(tmp_path)
    (tmp_path / "scripts" / "stale.py").write_text(
        '"""See DESIGN.md and docs/cli.md."""\n', encoding="utf-8"
    )
    stale = _run_copy(tmp_path)
    assert stale.returncode == 1
    assert "scripts/stale.py:1: names DESIGN.md" in stale.stderr
    assert "docs/cli.md" not in stale.stderr


def test_doc_importing_a_removed_name_fails(tmp_path):
    _doctored_checkout(
        tmp_path,
        "cookbook.md",
        "from repro.scheduler import JobScheduler\n",
        "from repro.scheduler import JobScheduler, TenantQuota\n",
    )
    stale = _run_copy(tmp_path)
    assert stale.returncode == 1
    assert "`from repro.scheduler import TenantQuota` does not resolve" in stale.stderr
    assert "import JobScheduler`" not in stale.stderr
