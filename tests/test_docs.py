"""Documentation health checks: files exist, relative links resolve.

Run by the CI docs job (and the normal fast lane).  The checks are
intentionally dependency-free: a regex pass over the repository's markdown
files verifying that every relative link target exists on disk, structural
assertions that the docs cover the subsystems they promise, and one run of
every script under ``examples/``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files covered by the link check.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "ROADMAP.md"]
    + list((REPO_ROOT / "docs").glob("*.md"))
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(path: Path):
    for target in _LINK_RE.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


def test_doc_files_exist():
    for path in (REPO_ROOT / "docs" / "README.md",
                 REPO_ROOT / "docs" / "architecture.md",
                 REPO_ROOT / "docs" / "runtime.md",
                 REPO_ROOT / "docs" / "tuning.md"):
        assert path.is_file(), f"missing documentation file {path}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(doc):
    for target in _relative_links(doc):
        resolved = (doc.parent / target).resolve()
        assert resolved.exists(), f"{doc.name}: broken relative link {target!r}"


def test_architecture_guide_covers_all_stages():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for needle in (
        "stage I", "stage II", "stage III",
        "repro.core.stage2.lowering", "repro.core.stage3.buffer_lowering",
        "sparse_coord_to_pos", "horizontal fusion",
    ):
        assert needle in text, f"architecture.md does not mention {needle!r}"


def test_runtime_guide_covers_runtime_subsystems():
    text = (REPO_ROOT / "docs" / "runtime.md").read_text(encoding="utf-8")
    for needle in (
        "Session", "KernelCache", "analyze_hazards", "UnsupportedForEmission",
        "Kernel.declined", "np.add.at", "structural fingerprint",
        "batched_spmm", "batched_sddmm", "rgms", "sparse_conv",
    ):
        assert needle in text, f"runtime.md does not mention {needle!r}"


def test_tuning_guide_covers_autoscheduler_subsystems():
    text = (REPO_ROOT / "docs" / "tuning.md").read_text(encoding="utf-8")
    for needle in (
        "Session.autotune", "tuned=True", "TuningRecord", "WorkloadSpec",
        "ParameterSpace", "REPRO_TUNING_RECORDS", "successive_halving",
        "evolutionary", "spmm", "sddmm", "attention", "rgms", "sparse_conv",
        "pruned_spmm", "benchmarks/test_tuning.py", "--regen-golden",
    ):
        assert needle in text, f"tuning.md does not mention {needle!r}"


def test_tuning_guide_spaces_match_the_registry():
    """The search-space reference table stays in sync with the code."""
    from repro.tune import available_workloads

    text = (REPO_ROOT / "docs" / "tuning.md").read_text(encoding="utf-8")
    for workload in available_workloads():
        assert f"`{workload}`" in text, (
            f"tuning.md search-space reference is missing workload {workload!r}"
        )


def test_readme_coverage_matrix_lists_every_session_operator():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    from repro.runtime import Session

    for method in (
        "spmm", "sddmm", "pruned_spmm", "batched_spmm", "batched_sddmm",
        "rgms", "sparse_conv",
    ):
        assert hasattr(Session, method)
        assert f"Session.{method}" in text, (
            f"README coverage matrix is missing Session.{method}"
        )


def test_retired_harness_outputs_are_not_named():
    """Wall-clock numbers have one source, ``bench/``: the five root
    ``BENCH_<area>.json`` files and the option that rewrote them are gone, and
    nothing tracked may send a reader looking for them.  History is exempt
    (``CHANGES.md``, ROADMAP's "Recent", the current ``ISSUE.md``), and so is
    ``bench/`` itself, which ``BENCHMARK.json`` freezes."""
    listed = subprocess.run(
        ["git", "ls-files", "*.md", "*.yml", "*.py"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    frozen = tuple(json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["paths"])
    retired = re.compile(r"BENCH_\S*|--write-bench")
    offenders = []
    for name in listed.stdout.split():
        if name in ("CHANGES.md", "ISSUE.md", "tests/test_docs.py"):
            continue
        if name.split("/")[0] in frozen or not (REPO_ROOT / name).is_file():
            continue
        text = (REPO_ROOT / name).read_text(encoding="utf-8")
        if name == "ROADMAP.md":
            text = text.partition("\n## Recent")[0]
        offenders += [f"{name}: {match.group()}" for match in retired.finditer(text)]
    assert not offenders, offenders


EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    """Each example is a ``__main__`` script that asserts its own results."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
