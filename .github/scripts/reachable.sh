#!/usr/bin/env bash
# Fails when a non-test function of module met is linked into no binary
# (cmd/*, examples/*, the bench module) and is not listed, with a
# reason, in reachable.allow next to this script. Builds with inlining
# off so a small function is not counted as unreached because its only
# call sites were inlined. Closures, init and compiler-generated wrappers
# are not checked, generic instantiations are compared without their
# go.shape. prefix, and the test-support packages testutil and
# analysistest are skipped. Run from anywhere:
# bash .github/scripts/reachable.sh
set -euo pipefail
cd "$(dirname "$0")/../.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
go -C bench build -gcflags=all=-l -o "$tmp/bin/bench" .
for b in "$tmp"/bin/*; do go tool nm "$b"; done | awk '$2 == "T" { print $3 }' | sed "s/go\.shape\.//g" | sort -u >"$tmp/linked"
go list -export -gcflags=all=-l -f '{{if ne .Name "main"}}{{.ImportPath}} {{.Export}}{{end}}' ./... |
	grep -vE '/(testutil|analysistest) ' |
	while read -r pkg archive; do
		go tool objdump "$archive" |
			awk -v p="$pkg." '$1 == "TEXT" && $3 != "<autogenerated>" && index($2, p) == 1 { sub(/\(SB\)$/, "", $2); print $2 }'
	done | grep -vE '\.(func|gowrap|deferwrap)[0-9]+|\.init(\.[0-9]+)?$' | sed "s/go\.shape\.//g" | sort -u >"$tmp/defined"
awk '!/^#/ && NF { print $1 }' .github/scripts/reachable.allow | sort -u >"$tmp/allowed"
comm -23 "$tmp/defined" "$tmp/linked" >"$tmp/unlinked"
status=0
if comm -23 "$tmp/unlinked" "$tmp/allowed" | grep . >&2; then
	echo "^ functions no binary reaches: delete them, move them into a _test.go file, or allowlist them with a reason" >&2
	status=1
fi
if comm -13 "$tmp/unlinked" "$tmp/allowed" | grep . >&2; then
	echo "^ reachable.allow entries for functions that are linked or gone: drop them" >&2
	status=1
fi
exit "$status"
