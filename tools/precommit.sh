#!/usr/bin/env bash
# Pre-commit gate: the CI lint job's format check and simlint run, over the
# whole tree (simlint lints it in under a second).  Wire it up with:
#
#   ln -s ../../tools/precommit.sh .git/hooks/pre-commit
#
# or run it by hand before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v clang-format > /dev/null 2>&1; then
  tools/format.sh --check
else
  echo "precommit: clang-format not found; skipping format check" >&2
fi

python3 tools/simlint.py src tests bench examples
echo "precommit: tree clean"
