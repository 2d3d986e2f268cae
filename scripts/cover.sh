#!/bin/sh
# Coverage floor over the simulation core. Runs the internal packages
# with a merged statement-coverage profile and fails if total coverage
# drops below the floor — a ratchet against landing untested subsystems.
#
# The floor sits just under the measured level (89.5% when it was raised
# from 80% to 88%, so deleting hand-listed test rows for generated ones
# cannot quietly cost coverage); only a genuinely untested addition or a
# lost relation trips it. Raise the floor when coverage durably improves.
#
# Usage: scripts/cover.sh [floor-percent]
set -eu
cd "$(dirname "$0")/.."
floor="${1:-88}"
profile="$(mktemp)"
trap 'rm -f "$profile"' EXIT
go test -count=1 -coverprofile="$profile" ./internal/... > /dev/null
total="$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')"
echo "coverage: ${total}% of statements in internal/... (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
	echo "coverage ${total}% is below the ${floor}% floor" >&2
	exit 1
}
