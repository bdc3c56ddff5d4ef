#!/usr/bin/env bash
# Runs a hand-listed set of tests and fails if any listed name matches no
# test. `go test -run` exits 0 when its pattern selects nothing, so a
# renamed or deleted test would otherwise drop out of CI silently.
#
# usage: .github/run-named-tests.sh 'TestA|TestB' 'pkg...' [go test flags]
#
# The names are anchored (^(TestA|TestB)$), so each selects exactly the
# test of that name; the trailing flags (-race, -v, ...) go to the run.
set -euo pipefail

tests=$1
pkgs=$2
shift 2

listed=$(go test -list "^($tests)\$" $pkgs)
missing=0
for name in ${tests//|/ }; do
	if ! grep -qx "$name" <<<"$listed"; then
		echo "no test named $name in $pkgs"
		missing=1
	fi
done
[ "$missing" -eq 0 ] || exit 1

go test "$@" -run "^($tests)\$" $pkgs
