#!/bin/sh
# The CI lint job's two commands, so builder and CI run one thing:
#   sh scripts/lint.sh
# Without ruff (pip install -e ".[test]" provides it) a stdlib fallback runs
# instead and says so: every tracked source must compile and import nothing
# it does not use.  That is a subset of the ruff gate, not a substitute --
# CI, which has ruff, stays the judge.
set -e
cd "$(dirname "$0")/.."
if ! python -c "import ruff" 2>/dev/null; then
    echo "lint.sh: ruff is not importable -- running the stdlib fallback" \
         "(compileall + scripts/unused_imports.py), NOT the ruff gate" >&2
    # Bytecode goes to a throw-away prefix: a tree with __pycache__ starts
    # faster than a fresh clone, which skews a setup_s comparison.
    cache="$(mktemp -d)"
    trap 'rm -rf "$cache"' EXIT
    PYTHONPYCACHEPREFIX="$cache" python -m compileall -q src tests benchmarks examples scripts
    python scripts/unused_imports.py src tests benchmarks examples scripts
    exit 0
fi
python -m ruff check src tests benchmarks examples scripts
# Formatter check is scoped to scripts/ for now: the rest of the tree
# predates the formatter and is normalized lint-only (ruff check).
python -m ruff format --check scripts
