#!/bin/sh
# A sharc-fuzz campaign's digest is a function of its flags alone.
# --quiet only drops the per-program report lines, so the digest must
# not move with it (nor with the heap layout its output buffers change).
#
# Usage: fuzz_digest.sh <sharc-fuzz>
FUZZ=$1
RUN="--count 50 --schedules 4 --seed 7"

# shellcheck disable=SC2086
LOUD=$("$FUZZ" $RUN | grep 'digest=') || { echo "FAIL: loud run"; exit 1; }
# shellcheck disable=SC2086
QUIET=$("$FUZZ" $RUN --quiet | grep 'digest=') ||
  { echo "FAIL: quiet run"; exit 1; }
if [ "$LOUD" != "$QUIET" ]; then
  echo "FAIL: digest differs: '$LOUD' vs --quiet '$QUIET'"
  exit 1
fi
echo "ok: $LOUD with and without --quiet"
