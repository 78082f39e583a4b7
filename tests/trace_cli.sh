#!/bin/sh
# End-to-end contract for the observability CLI surface:
#   - `sharcc --run --trace-out T --metrics-out M` produces a trace whose
#     `sharc-trace summarize` conflict count equals the violation count
#     sharcc itself reports on stderr, and a metrics file that passes
#     `sharc-trace check-metrics`.
#   - sharcc's new flag parsing: --help exits 0, malformed numeric
#     arguments exit 2.
#   - sharc-trace's own usage contract: help 0, bad usage 2, bad file 1.
#   - report (text and HTML), check-prom against scrapes and traces, and
#     the regression gates of check-overhead and compare-runs.
#
# usage: trace_cli.sh <path-to-sharcc> <path-to-sharc-trace> <examples-dir>
set -u

SHARCC=$1
TRACE=$2
EXAMPLES=$3
STATUS=0
WORK="${TMPDIR:-/tmp}/sharc_trace_cli_$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $1"
  STATUS=1
}

expect_exit() { # <expected> <description> <cmd...>
  WANT=$1
  WHAT=$2
  shift 2
  "$@" > /dev/null 2>&1
  GOT=$?
  if [ "$GOT" -ne "$WANT" ]; then
    fail "$WHAT: expected exit $WANT, got $GOT"
  else
    echo "ok: $WHAT (exit $GOT)"
  fi
}

# --- acceptance: trace conflicts == sharcc's reported violations ---
"$SHARCC" --run --seed 3 --trace-out "$WORK/t.strc" \
  --metrics-out "$WORK/m.json" "$EXAMPLES/pipeline_unannotated.mc" \
  > /dev/null 2> "$WORK/stderr.txt"
[ $? -eq 1 ] || fail "pipeline_unannotated run should exit 1"
VIOLATIONS=$(sed -n 's/^sharcc: .* \([0-9][0-9]*\) violations$/\1/p' "$WORK/stderr.txt" | head -1)
[ -n "$VIOLATIONS" ] || fail "no violation count on sharcc stderr"
CONFLICTS=$("$TRACE" summarize "$WORK/t.strc" | sed -n 's/^conflicts: \([0-9][0-9]*\)$/\1/p')
[ -n "$CONFLICTS" ] || fail "no conflict count in summarize output"
if [ "x$VIOLATIONS" = "x$CONFLICTS" ]; then
  echo "ok: summarize reports $CONFLICTS conflicts == sharcc's $VIOLATIONS violations"
else
  fail "summarize reports '$CONFLICTS' conflicts, sharcc reported '$VIOLATIONS'"
fi

expect_exit 0 "check-metrics accepts sharcc --metrics-out" \
  "$TRACE" check-metrics "$WORK/m.json"
expect_exit 0 "dump runs" "$TRACE" dump "$WORK/t.strc"
expect_exit 0 "schedule runs" "$TRACE" schedule "$WORK/t.strc"
expect_exit 0 "metrics runs" "$TRACE" metrics "$WORK/t.strc"

# A clean program yields a zero-conflict trace.
"$SHARCC" --run --quiet --trace-out "$WORK/clean.strc" \
  "$EXAMPLES/locked_counter.mc" > /dev/null 2>&1
[ $? -eq 0 ] || fail "locked_counter with --trace-out should exit 0"
CLEAN=$("$TRACE" summarize "$WORK/clean.strc" | sed -n 's/^conflicts: \([0-9][0-9]*\)$/\1/p')
if [ "x$CLEAN" = "x0" ]; then
  echo "ok: clean run traces 0 conflicts"
else
  fail "clean run traced '$CLEAN' conflicts"
fi

# --- sharcc flag contract ---
expect_exit 0 "sharcc --help" "$SHARCC" --help
expect_exit 2 "trailing garbage in --seed" \
  "$SHARCC" --run --seed 12x "$EXAMPLES/locked_counter.mc"
expect_exit 2 "non-numeric --max-steps" \
  "$SHARCC" --run --max-steps many "$EXAMPLES/locked_counter.mc"
expect_exit 2 "--seed without value" "$SHARCC" --run --seed
expect_exit 2 "--trace-out without value" "$SHARCC" --run --trace-out
expect_exit 2 "--trace-out with --check" \
  "$SHARCC" --check --trace-out "$WORK/x.strc" "$EXAMPLES/locked_counter.mc"
expect_exit 2 "unwritable --trace-out" \
  "$SHARCC" --run --quiet --trace-out "$WORK/no/such/dir/t.strc" \
  "$EXAMPLES/locked_counter.mc"

# --- compare-runs: percentile gating and the named-offender FAIL ---
# Two hand-written archives where wall time barely moves but p99 doubles:
# the gate must trip on the percentile and the FAIL line must say which
# metric key regressed.
mkdir -p "$WORK/hist"
cat > "$WORK/hist/aaa-1.json" <<'EOF'
{"schema":"sharc-bench-v1","bench":"sharc_serve","scale":1,"reps":1,
 "host":{"cpus":1,"compiler":"gcc","build":"release","git_rev":"aaa","unix_time":100},
 "rows":[{"name":"sharc/run","metrics":{"real_ns":1000000.0,"p50_us":10.0,"p99_us":40.0}}]}
EOF
cat > "$WORK/hist/bbb-1.json" <<'EOF'
{"schema":"sharc-bench-v1","bench":"sharc_serve","scale":1,"reps":1,
 "host":{"cpus":1,"compiler":"gcc","build":"release","git_rev":"bbb","unix_time":200},
 "rows":[{"name":"sharc/run","metrics":{"real_ns":1010000.0,"p50_us":10.2,"p99_us":80.0}}]}
EOF
"$TRACE" compare-runs "$WORK/hist" --max-pct 10 > "$WORK/cmp.txt" 2>&1
if [ $? -eq 1 ]; then
  echo "ok: compare-runs fails on a p99 regression wall time missed"
else
  fail "compare-runs did not fail on the p99 regression"
fi
if grep -q "FAIL.*sharc_serve/sharc/run:p99_us" "$WORK/cmp.txt"; then
  echo "ok: compare-runs FAIL names the regressed metric key"
else
  fail "compare-runs FAIL line does not name sharc_serve/sharc/run:p99_us"
fi
# A generous threshold lets the same archives pass.
expect_exit 0 "compare-runs passes at --max-pct 150" \
  "$TRACE" compare-runs "$WORK/hist" --max-pct 150

# --- compare-runs: Table 1 rows trend the checked run's time ---
# Only time_sharc_sec regresses (the uninstrumented time_orig_sec is
# flat): the gate must fail and name the checked column.
mkdir -p "$WORK/t1"
for REV in aaa bbb; do
  if [ "$REV" = aaa ]; then T=100 SHARC=0.010; else T=200 SHARC=0.030; fi
  cat > "$WORK/t1/$REV-0.json" <<EOF
{"schema":"sharc-bench-v1","bench":"bench_table1","scale":1,"reps":1,
 "host":{"cpus":1,"compiler":"gcc","build":"release","git_rev":"$REV","unix_time":$T},
 "rows":[{"name":"pfscan","metrics":{"threads":2,"time_orig_sec":0.008,"time_sharc_sec":$SHARC}}]}
EOF
done
"$TRACE" compare-runs "$WORK/t1" --max-pct 25 > "$WORK/t1.txt" 2>&1
if [ $? -eq 1 ] &&
   grep -q "^FAIL: .*bench_table1/pfscan:time_sharc_sec" "$WORK/t1.txt"; then
  echo "ok: compare-runs fails naming bench_table1/pfscan:time_sharc_sec"
else
  fail "compare-runs missed the time_sharc_sec regression: $(cat "$WORK/t1.txt")"
fi

# --- check-overhead: the same +200% step fails, in both flag forms ---
expect_exit 1 "check-overhead fails a +200% row" \
  "$TRACE" check-overhead --max-pct 2 "$WORK/t1/aaa-0.json" "$WORK/t1/bbb-0.json"
expect_exit 1 "check-overhead accepts --max-pct=2" \
  "$TRACE" check-overhead --max-pct=2 "$WORK/t1/aaa-0.json" "$WORK/t1/bbb-0.json"
expect_exit 2 "check-overhead rejects --max-pct nan" \
  "$TRACE" check-overhead --max-pct nan "$WORK/t1/aaa-0.json" "$WORK/t1/bbb-0.json"
if "$TRACE" check-overhead "$WORK/t1/aaa-0.json" "$WORK/t1/bbb-0.json" |
   grep -q "^FAIL pfscan  *time_sharc_sec 0.01 -> 0.03 "; then
  echo "ok: check-overhead prints seconds with significant digits"
else
  fail "check-overhead row line lacks 'time_sharc_sec 0.01 -> 0.03'"
fi

# --- report: causal text on stdout, self-validated HTML on request ---
"$SHARCC" --run --quiet --profile --trace-out "$WORK/p.strc" \
  "$EXAMPLES/prof_tuning.mc" > /dev/null 2>&1
"$TRACE" report "$WORK/p.strc" > "$WORK/report.txt" 2>&1
RC=$?
if [ $RC -eq 0 ] && grep -q "^causal timeline:" "$WORK/report.txt" &&
   grep -q "^critical path:" "$WORK/report.txt"; then
  echo "ok: report prints the timeline, then the critical path"
else
  fail "report text (exit $RC): $(head -3 "$WORK/report.txt")"
fi
"$TRACE" report "$WORK/p.strc" "$WORK/p.html" > "$WORK/report2.txt" 2>&1
if [ $? -eq 0 ] && cmp -s "$WORK/report.txt" "$WORK/report2.txt" &&
   head -1 "$WORK/p.html" | grep -q "^<!doctype html>" &&
   tail -1 "$WORK/p.html" | grep -q "</html>"; then
  echo "ok: report OUT.html writes the HTML report beside the same text"
else
  fail "report OUT.html did not write a whole HTML file"
fi
expect_exit 1 "report to an unwritable OUT.html" \
  "$TRACE" report "$WORK/p.strc" "$WORK/no/such/dir/p.html"
SIZE=$(wc -c < "$WORK/p.strc")
head -c $((SIZE * 2 / 3)) "$WORK/p.strc" > "$WORK/p_cut.strc"
if "$TRACE" report "$WORK/p_cut.strc" 2>&1 | grep -q "^note: truncated"; then
  echo "ok: report analyses a truncated trace's prefix"
else
  fail "report on a truncated trace lacks its note"
fi

# --- check-prom: scrapes, and a scrape against its run's trace ---
# The run lingers so the final counters can be scraped once the trace is
# complete; the endpoint binds an ephemeral loopback port.
"$SHARCC" --run --quiet --stats-addr=127.0.0.1:0 --stats-linger-ms 20000 \
  --trace-out "$WORK/live.strc" "$EXAMPLES/prof_tuning.mc" \
  > /dev/null 2> "$WORK/live.err" &
LIVE=$!
"$TRACE" tail --quiet --idle-ms 20000 "$WORK/live.strc" > /dev/null 2>&1
ADDR=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$WORK/live.err")
"$TRACE" scrape "$ADDR" > "$WORK/s.txt" 2>&1 || fail "scrape of '$ADDR' failed"
kill "$LIVE" 2> /dev/null
wait "$LIVE" 2> /dev/null
expect_exit 0 "check-prom accepts a scrape" "$TRACE" check-prom "$WORK/s.txt"
if "$TRACE" check-prom "$WORK/s.txt" "$WORK/live.strc" |
   grep -q "^ok: .* series exactly match the trace's final stats sample"; then
  echo "ok: check-prom matches the final scrape to the trace"
else
  fail "check-prom SCRAPE FILE.strc did not match the run's trace"
fi
sed 's/^\(sharc_checks_total{kind="dynamic_reads"}\) .*/\1 1/' "$WORK/s.txt" \
  > "$WORK/s_low.txt"
expect_exit 1 "check-prom fails counters that went down" \
  "$TRACE" check-prom "$WORK/s.txt" "$WORK/s_low.txt"
"$TRACE" check-prom "$WORK/s_low.txt" "$WORK/live.strc" > "$WORK/live.txt" 2>&1
if [ $? -eq 1 ] &&
   grep -q '^FAIL sharc_checks_total{kind="dynamic_reads"} .* scrape 1 != trace' \
     "$WORK/live.txt"; then
  echo "ok: check-prom names the series that differs from the trace"
else
  fail "check-prom against the trace: $(cat "$WORK/live.txt")"
fi
expect_exit 1 "check-prom against a truncated trace" \
  "$TRACE" check-prom "$WORK/s.txt" "$WORK/p_cut.strc"
printf 'sharc_checks_total{kind="dynamic_reads" 1\n' > "$WORK/bad.prom"
expect_exit 1 "check-prom rejects malformed exposition text" \
  "$TRACE" check-prom "$WORK/bad.prom"

# --- sharc-trace usage contract ---
expect_exit 0 "sharc-trace --help" "$TRACE" --help
expect_exit 2 "sharc-trace no arguments" "$TRACE"
expect_exit 2 "sharc-trace unknown command" "$TRACE" frobnicate "$WORK/t.strc"
expect_exit 2 "summarize without file" "$TRACE" summarize
expect_exit 1 "summarize on missing file" "$TRACE" summarize "$WORK/nope.strc"
printf 'not a trace' > "$WORK/bad.strc"
expect_exit 1 "summarize on garbage file" "$TRACE" summarize "$WORK/bad.strc"
expect_exit 1 "check-bench on metrics file" "$TRACE" check-bench "$WORK/m.json"

exit $STATUS
