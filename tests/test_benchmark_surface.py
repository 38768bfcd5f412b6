"""The package names that ``benchmarks/`` imports must keep resolving.

The benchmark scripts are run against every revision as they stand, and
their own tests are not part of this suite, so a refactor that deletes or
renames a name they import would otherwise go unnoticed until a benchmark
run.  The scan reads the source text, so imports inside strings (the child
program of ``blas_threads.py``) count too.
"""

import importlib
import re
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
IMPORT = re.compile(r"^\s*from downwash\.(\w+) import (\([^)]*\)|[^\n]*)", re.M)


def benchmark_imports() -> list:
    """(file, module, name) of every ``from downwash.<module> import <names>``."""
    found = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for module, names in IMPORT.findall(path.read_text(encoding="utf-8")):
            for name in names.strip("()").split(","):
                name = name.split(" as ")[0].strip()
                if name:
                    found.append((path.name, module, name))
    return found


def test_every_name_benchmarks_import_resolves():
    found = benchmark_imports()
    # the scan sees module-level imports, imports inside functions and the child source string
    assert ("workloads.py", "models", "load_model") in found
    assert ("test_reference.py", "field", "aggregate_merging") in found
    assert ("blas_threads.py", "training", "train") in found
    missing = [
        f"{file}: downwash.{module}.{name}"
        for file, module, name in found
        if not hasattr(importlib.import_module(f"downwash.{module}"), name)
    ]
    assert not missing, f"names imported by benchmarks/ are gone: {missing}"
