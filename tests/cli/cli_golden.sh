#!/usr/bin/env bash
# Golden check for one expert_cli invocation: its stdout must equal the
# golden file byte for byte, and it must exit with the expected status.
#
# Usage: tests/cli/cli_golden.sh [--exit N] [--stderr] [--stderr-has TEXT]
#            [--history GEN] GOLDEN CLI [ARGS...]
#
#   --exit N           expected exit status (default 0)
#   --stderr           compare stderr instead of stdout (usage text)
#   --stderr-has TEXT  stderr must contain TEXT; error messages carry source
#                      locations, so their stderr is matched, never golden
#   --history GEN      first run `GEN FILE` to write a history CSV into the
#                      test's temp dir; each ARG equal to @HISTORY@ is
#                      replaced by FILE

set -u

expect_exit=0
stream=out
stderr_has=""
history_gen=""
while [ $# -gt 0 ]; do
  case "$1" in
    --exit) expect_exit="$2"; shift 2 ;;
    --stderr) stream=err; shift ;;
    --stderr-has) stderr_has="$2"; shift 2 ;;
    --history) history_gen="$2"; shift 2 ;;
    *) break ;;
  esac
done
GOLDEN="${1:?usage: cli_golden.sh [options] GOLDEN CLI [ARGS...]}"
CLI="${2:?usage: cli_golden.sh [options] GOLDEN CLI [ARGS...]}"
shift 2

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

args=("$@")
if [ -n "$history_gen" ]; then
  if ! "$history_gen" "$workdir/history.csv" > /dev/null; then
    echo "FAIL: history generator $history_gen exited non-zero" >&2
    exit 1
  fi
  for i in "${!args[@]}"; do
    [ "${args[$i]}" = "@HISTORY@" ] && args[$i]="$workdir/history.csv"
  done
fi

"$CLI" "${args[@]}" > "$workdir/out" 2> "$workdir/err"
status=$?
if [ "$status" -ne "$expect_exit" ]; then
  echo "FAIL: exit status $status, expected $expect_exit" >&2
  cat "$workdir/err" >&2
  exit 1
fi
if [ -n "$stderr_has" ] && ! grep -qF -- "$stderr_has" "$workdir/err"; then
  echo "FAIL: stderr lacks: $stderr_has" >&2
  cat "$workdir/err" >&2
  exit 1
fi
if ! diff -u "$GOLDEN" "$workdir/$stream"; then
  echo "FAIL: std$stream differs from $GOLDEN" >&2
  exit 1
fi
echo "PASS: $(basename "$GOLDEN")"
