"""The bit-identity table in docs/ARCHITECTURE.md names tests and CI jobs that exist.

Each row's "Enforced by" cell is the contract that a test fails if the
invariant breaks; a row naming a moved test file or a renamed CI job
would silently enforce nothing.  Likewise every ``benchmarks/`` or
``tests/`` path that the README, the architecture doc or a CI ``run:``
step names must exist, so a deleted file cannot leave a step or a
paragraph pointing at nothing.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE_HEADING = "## Bit-identity invariants, per layer"


def _enforced_by_cells() -> list[tuple[str, str]]:
    """(layer, enforced-by) for every row of the invariant table."""
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    section = text.split(TABLE_HEADING, 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] not in ("Layer", "---"):
            rows.append((cells[0], cells[2]))
    return rows


def _ci_job_ids() -> set[str]:
    """Job ids of the CI workflow (two-space keys under ``jobs:``)."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    jobs = text.split("\njobs:\n", 1)[1]
    return set(re.findall(r"^  ([A-Za-z0-9_-]+):\s*$", jobs, flags=re.MULTILINE))


ROWS = _enforced_by_cells()
IDS = [layer.replace("`", "") for layer, _ in ROWS]


def test_table_parses():
    layers = [layer for layer, _ in ROWS]
    assert len(ROWS) >= 10, f"invariant table not found or truncated: {layers}"
    assert "`serving.cluster`" in layers and "`train.parallel`" in layers


@pytest.mark.parametrize(("layer", "cell"), ROWS, ids=IDS)
def test_named_tests_exist(layer, cell):
    for path in re.findall(r"`(tests/[^`]*)`", cell):
        assert list(ROOT.glob(path)), f"{layer} names {path}, which does not exist"


@pytest.mark.parametrize(("layer", "cell"), ROWS, ids=IDS)
def test_named_ci_jobs_exist(layer, cell):
    jobs = _ci_job_ids()
    for job in re.findall(r"\bCI ([A-Za-z0-9_-]+)", cell):
        assert job in jobs, f"{layer} names CI job {job!r}; jobs are {sorted(jobs)}"


def _named_paths() -> list[tuple[str, str]]:
    """(source, path) for every ``benchmarks/…`` or ``tests/…`` path the
    docs name in backticks, or a CI ``run:`` step names."""
    token = re.compile(r"(?:^|(?<=[\s(\"']))((?:benchmarks|tests)/[^\s`\"')]*)")
    named = []
    for doc in ("README.md", "docs/ARCHITECTURE.md"):
        for span in re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text()):
            named += [(doc, path) for path in token.findall(span)]
    run_indent = None
    for line in (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines():
        indent = len(line) - len(line.lstrip())
        if run_indent is not None and line.strip() and indent <= run_indent:
            run_indent = None
        step = re.match(r"\s*(?:- )?run:(.*)$", line)
        if step:
            run_indent = indent
            line = step.group(1)
        if run_indent is not None:
            named += [("ci.yml", path) for path in token.findall(line)]
    return sorted(
        {
            (source, path.split("::", 1)[0])
            for source, path in named
            if not re.search(r"[<{]", path)
        }
    )


NAMED_PATHS = _named_paths()


def test_named_paths_parse():
    sources = {source for source, _ in NAMED_PATHS}
    assert sources == {"README.md", "docs/ARCHITECTURE.md", "ci.yml"}, sources


@pytest.mark.parametrize(
    ("source", "path"), NAMED_PATHS, ids=[f"{s}:{p}" for s, p in NAMED_PATHS]
)
def test_named_paths_exist(source, path):
    if any(char in path for char in "*?["):
        assert list(ROOT.glob(path)), f"{source} names {path}, which matches no file"
    else:
        assert (ROOT / path).exists(), f"{source} names {path}, which does not exist"
