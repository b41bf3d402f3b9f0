#!/usr/bin/env bash
# Check that CPython versions agree byte for byte on cmhodge's outputs.
#
#     scripts/same_stdout.sh 3.10 3.11 3.12 3.13
#
# Each argument V names the interpreter `python$V`, which must be on PATH.
# Three checks run from the repository root, each comparing every version
# with the first:
#   1. the stdout of each command below is byte-identical;
#   2. the `witness` bundles are byte-identical, and each version verifies
#      the bundle the next one wrote (the last verifies the first's);
#   3. a rehashed bundle with a bad group fails once, with the same verdict
#      on every version, and exit code 3.
# Outputs go to a temporary directory; the script exits nonzero at the
# first difference.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 VERSION VERSION [VERSION ...]" >&2
  exit 1
fi
versions=("$@")
first=${versions[0]}
last=${versions[-1]}
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cli() {
  local version=$1
  shift
  PYTHONPATH=src "python$version" -m cmhodge.cli "$@"
}

while read -r command; do
  for version in "${versions[@]}"; do
    cli "$version" $command > "$work/out-$version"
    cmp "$work/out-$first" "$work/out-$version"
  done
  echo "same: $command"
done <<'COMMANDS'
analyze --catalog dihedral:16
deltas --catalog cyclic:12 --orbits-only
witness --catalog product:cyclic.4xcyclic.4
oracle --catalog cyclic:8
oracle --input tests/fixtures/product-6..13.txt
deltas --catalog cyclic:64 --degree 4
analyze --catalog elementary-abelian:16
analyze --input tests/fixtures/product-6..13.txt
deltas --input tests/fixtures/d16-mixed.txt
deltas --catalog dihedral:24 --degree 6
analyze --input tests/fixtures/d16-mixed-relabelled.txt
catalog --catalog dihedral:32
catalog --catalog product:cyclic.8xcyclic.4
COMMANDS

while read -r source; do
  for version in "${versions[@]}"; do
    cli "$version" witness $source --certify "$work/bundle-$version.json"
    cmp "$work/bundle-$first.json" "$work/bundle-$version.json"
  done
  for i in "${!versions[@]}"; do
    writer=${versions[(i + 1) % ${#versions[@]}]}
    cli "${versions[i]}" verify --certify "$work/bundle-$writer.json"
  done
  echo "verified: $source"
done <<'SOURCES'
--catalog cyclic:64 --degree 4
--catalog dihedral:20
--catalog elementary-abelian:16 --degree 4
--input tests/fixtures/m68.txt
--input tests/fixtures/d16-mixed.txt
--input tests/fixtures/d16-mixed-relabelled.txt
SOURCES

cli "$last" witness --catalog cyclic:8 --certify "$work/good.json"
"python$last" -c 'import hashlib, json, sys; d = json.load(open(sys.argv[1])); del d["content_hash"]; d["instance"]["group"]["table"][1][1] = 1; d["content_hash"] = hashlib.sha256((json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n").encode()).hexdigest(); json.dump(d, open(sys.argv[2], "w"))' \
  "$work/good.json" "$work/bad.json"
for version in "${versions[@]}"; do
  status=0
  cli "$version" verify --certify "$work/bad.json" > "$work/verdict-$version" || status=$?
  test "$status" = 3
  cmp "$work/verdict-$first" "$work/verdict-$version"
done
test "$(cat "$work/verdict-$last")" = "bundle: fail [group_axioms] associativity fails at (1,1,2)"
echo "same: $(cat "$work/verdict-$last")"
