"""Two worlds, one wall: nothing that runs a program imports ``repro.sim``.

``repro.sim`` prices a V100 nobody here has (the analytic GPU model, the
baselines, the workload descriptions of every operator, the CUDA listing); the
rest of the package builds and runs programs that are timed beside SciPy.  The
dependency runs one way — ``repro.sim`` imports ``ops``, ``formats``, ``models``
and ``core`` — and this test holds the line by reading every import statement,
at any nesting depth, of every module outside ``repro/sim``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages outside ``repro.sim`` that may import it, each with its reason.
EXCEPTIONS = {
    "tune": (
        "phase 1 of the autoscheduler *is* the simulated ranking: it prices every "
        "candidate decomposition on the V100 model before phase 2 times the survivors "
        "(ROADMAP item 5(b), a HostSpec, removes this exception)"
    ),
}

#: The packages the rule was written for; a new one is covered without being listed.
RUNS_PROGRAMS = ("core", "runtime", "graph", "serve", "ops", "formats", "workloads", "models")


def imported_modules(source: str, module_path: str):
    """Absolute dotted names of everything *source* — the text of
    ``src/<module_path>`` — imports, with line numbers."""
    package = list(Path(module_path).parts[:-1])  # the package the module lives in
    for node in ast.walk(ast.parse(source, filename=module_path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module, node.lineno
            for alias in node.names:  # ``from .. import sim``
                yield f"{module}.{alias.name}", node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", "")) in (
            "import_module", "__import__",
        ):
            for arg in node.args[:1]:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    yield arg.value, node.lineno


def crossings():
    """top-level package -> ["file:line imports module", ...] for every import of ``repro.sim``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        top = path.relative_to(PACKAGE).parts[0]
        if top == "sim":
            continue
        name = str(path.relative_to(PACKAGE.parent))
        for module, lineno in imported_modules(path.read_text(), name):
            if module == "repro.sim" or module.startswith("repro.sim."):
                where = f"{name}:{lineno} imports {module}"
                found.setdefault(top, []).append(where)
    return found


def test_nothing_outside_tune_imports_the_simulated_world():
    found = crossings()
    offenders = {top: sites for top, sites in found.items() if top not in EXCEPTIONS}
    assert offenders == {}, "\n".join(site for sites in offenders.values() for site in sites)
    # The exception list names real crossings only — one that no longer imports
    # repro.sim must be struck from it.
    assert sorted(found) == sorted(EXCEPTIONS) == ["tune"]


def test_the_walk_covers_every_package_that_runs_programs():
    walked = {path.relative_to(PACKAGE).parts[0] for path in PACKAGE.rglob("*.py")}
    assert set(RUNS_PROGRAMS) <= walked and "sim" in walked
    assert not (PACKAGE / "perf").exists() and not (PACKAGE / "baselines").exists()


def test_the_resolver_sees_relative_and_nested_imports():
    source = (
        "def f():\n"
        "    if True:\n"
        "        from ...sim.device import V100\n"
        "    from ... import sim\n"
        "    import importlib\n"
        "    importlib.import_module('repro.sim.ops')\n"
        "    import repro.sim.baselines.dgl\n"
    )
    seen = {module for module, _ in imported_modules(source, "repro/core/codegen/probe.py")}
    assert {"repro.sim.device", "repro.sim", "repro.sim.ops", "repro.sim.baselines.dgl"} <= seen
    # In a package's ``__init__`` one dot is the package itself.
    assert ("repro.ops.spmm", 1) in set(imported_modules("from . import spmm\n", "repro/ops/__init__.py"))
