#!/bin/sh
# The CI lint job's two commands, so builder and CI run one thing:
#   sh scripts/lint.sh
# Fails loudly when ruff is missing (pip install -e ".[test]" provides it)
# instead of letting lint go unverified.
set -e
cd "$(dirname "$0")/.."
if ! python -c "import ruff" 2>/dev/null; then
    echo "lint.sh: ruff is not importable -- lint NOT run (pip install -e '.[test]')" >&2
    exit 1
fi
python -m ruff check src tests benchmarks examples scripts
# Formatter check is scoped to scripts/ for now: the rest of the tree
# predates the formatter and is normalized lint-only (ruff check).
python -m ruff format --check scripts
