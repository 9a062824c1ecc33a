#!/usr/bin/env bash
# Exit-code and output contract of the julie CLI.
#
#   0 — property holds / deadlock free (exhaustively)
#   1 — a deadlock or safety violation was found
#   2 — usage error, or an indeterminate verdict (budget exhausted,
#       certification failure)
#
# Run by dune (see ./dune) with the julie executable as $1.

set -u
JULIE="$1"
failures=0

# expect CODE DESCRIPTION -- ARGS...: run julie, compare the exit code.
# Output is kept for the grep helpers below.
out=""
expect() {
  local want="$1" desc="$2"
  shift 2
  [ "$1" = "--" ] && shift
  out="$("$JULIE" "$@" 2>&1)"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $got (julie $*)"
    echo "$out" | sed 's/^/      /'
    failures=$((failures + 1))
  else
    echo "ok:   $desc (exit $got)"
  fi
}

# expect_out PATTERN DESCRIPTION: grep the output of the last expect.
expect_out() {
  local pattern="$1" desc="$2"
  if ! printf '%s\n' "$out" | grep -q "$pattern"; then
    echo "FAIL: $desc: output lacks /$pattern/"
    printf '%s\n' "$out" | sed 's/^/      /'
    failures=$((failures + 1))
  else
    echo "ok:   $desc"
  fi
}

# --- analyze: documented verdict codes --------------------------------

expect 1 "analyze finds the NSDP deadlock" -- analyze -m nsdp -n 4
expect 0 "analyze clears the overtake protocol" -- analyze -m over -n 3
expect 2 "analyze rejects an unknown model" -- analyze -m no-such-model
expect 2 "analyze with no net is a usage error" -- analyze

# Bad input is a usage error with a message, never an uncaught
# exception (exit 125).
expect 2 "a size the model rejects is a usage error" -- certify -m asat -n 6
expect_out "power of two" "the model's complaint is printed"
expect 2 "an empty figure is a usage error" -- analyze -m fig2 -n 0
expect 2 "an unknown place is a usage error" -- \
  safety -m nsdp -n 3 -p nosuch
expect_out "unknown place" "the unknown place is named"

# Regression: analyze runs GPO in its complete configuration.  The
# paper configuration misses this net's deadlock.
expect 1 "gpo finds the deadlock of random net 1" -- \
  analyze -m random -n 1 -e gpo

# Regression: a truncated exploration that found nothing must be
# reported as inconclusive (exit 2), never as a clean "no deadlock".
expect 2 "truncated clean run is inconclusive" -- \
  analyze -m asat -n 4 -e full --max-states 50
expect_out "inconclusive" "truncation is called out as inconclusive"

# A deadlock found before the budget ran out is still a verdict.
expect 1 "deadlock found within a tight budget still exits 1" -- \
  analyze -m nsdp -n 4 -e gpo --max-states 50

# --- witnesses --------------------------------------------------------

expect 1 "analyze --witness still exits 1" -- analyze -m nsdp -n 4
expect_out "witness:" "witness is printed"
expect_out "CERTIFIED" "witness is certified inline"
# Witnesses are always on: analyze has no opt-out flag.
expect 2 "analyze rejects the removed --witness flag" -- \
  analyze -m nsdp -n 4 --witness
expect 1 "trace certifies before it replays" -- trace -m nsdp -n 4
expect_out "CERTIFIED\|deadlock reached by:" "trace prints the certified replay"

for engine in full po smv gpo; do
  expect 1 "trace reconstructs a witness ($engine)" -- \
    trace -m nsdp -n 4 -e "$engine"
  expect_out "deadlock reached by:" "trace shows the firing sequence ($engine)"
done
expect 0 "trace on a deadlock-free net exits 0" -- trace -m over -n 3
expect 2 "trace with an exhausted budget is inconclusive" -- \
  trace -m asat -n 4 -e full --max-states 50

# --- certify ----------------------------------------------------------

expect 1 "certify confirms the NSDP deadlock on all engines" -- \
  certify -m nsdp -n 2
expect_out "CERTIFIED" "certify prints the certified witness"
expect 0 "certify reports the overtake protocol clean" -- certify -m over -n 3
expect 2 "certify under an exhausted budget is inconclusive" -- \
  certify -m asat -n 4 -e full --max-states 50

# --- safety (coverability through the monitor reduction) --------------

expect 1 "safety finds the fork cover" -- \
  safety -m nsdp -n 2 -p gotL.0 -p gotL.1 -e smv
expect_out "VIOLATED" "safety announces the violation"
expect_out "scenario (certified):" "safety ships a certified scenario"

# Regression: the GPO engine must use its complete configuration here —
# the paper configuration misses this covering marking and would have
# reported the property as holding.
expect 1 "safety agrees on the gpo engine" -- \
  safety -m nsdp -n 2 -p gotL.0 -p gotL.1 -e gpo
expect_out "scenario (certified):" "gpo safety scenario is certified"

# think.0 and askL.0 are two states of one philosopher: never covered.
expect 0 "safety proves an unreachable cover" -- \
  safety -m nsdp -n 2 -p think.0 -p askL.0 -e full
expect_out "holds:" "safety announces the proof"
expect 2 "safety without --place is a usage error" -- safety -m nsdp -n 2

expect 1 "certify --place certifies the violation per engine" -- \
  certify -m nsdp -n 2 -p gotL.0 -p gotL.1
expect_out "CERTIFIED" "certify --place prints certified witnesses"
expect 0 "certify --place on a holding property" -- \
  certify -m nsdp -n 2 -p think.0 -p askL.0

# --- multicore: --jobs and the racing portfolio -----------------------

# GPO wave workers must reproduce the sequential verdicts exactly.
expect 1 "parallel analyze finds the NSDP deadlock" -- \
  analyze -m nsdp -n 4 -e gpo -j 4
expect 0 "parallel analyze clears the overtake protocol" -- \
  analyze -m over -n 3 -e gpo -j 4
expect 2 "parallel truncated clean run is still inconclusive" -- \
  analyze -m asat -n 4 -e gpo -j 4 --max-states 5
expect_out "inconclusive" "parallel truncation is called out"

# The portfolio returns the first conclusive verdict with its witness.
expect 1 "portfolio finds the NSDP deadlock" -- \
  analyze -m nsdp -n 4 -e portfolio
expect_out "portfolio: .* won" "portfolio announces its winner"
expect_out "CERTIFIED" "portfolio witness is certified inline"
expect 0 "portfolio clears the overtake protocol" -- \
  analyze -m over -n 3 -e portfolio
expect 1 "portfolio safety verdict" -- \
  safety -m nsdp -n 2 -p gotL.0 -p gotL.1 -e portfolio
expect_out "scenario (certified):" "portfolio safety scenario is certified"
expect 1 "certify accepts -e portfolio" -- certify -m nsdp -n 2 -e portfolio
expect_out "CERTIFIED" "portfolio certification prints the witness"
expect 2 "unknown engine is still a usage error" -- \
  analyze -m nsdp -n 2 -e bogus

# --- structural reduction: --reduce / --no-reduce ---------------------

# Verdicts must be invariant under reduction, on both outcomes.
expect 1 "reduced analyze finds the NSDP deadlock" -- \
  analyze -m nsdp -n 4 --reduce
expect_out "reduction:" "the reduction summary is printed"
expect 0 "reduced analyze clears the overtake protocol" -- \
  analyze -m over -n 3 --reduce
expect 2 "analyze rejects the removed --no-reduce flag" -- \
  analyze -m over -n 3 --reduce --no-reduce

# A witness found on the reduced net certifies against the original.
expect 1 "reduced analyze certifies" -- \
  analyze -m nsdp -n 4 --reduce
expect_out "CERTIFIED" "lifted witness is certified inline"
expect 1 "reduced certify confirms on all engines" -- \
  certify -m nsdp -n 2 --reduce
expect_out "CERTIFIED" "reduced certify prints certified witnesses"
expect 0 "reduced certify reports the overtake protocol clean" -- \
  certify -m over -n 3 --reduce
expect 1 "reduced trace replays a lifted witness" -- \
  trace -m nsdp -n 4 --reduce
expect_out "deadlock reached by:" "lifted trace replays step by step"

# Safety reduces the monitored net; the scenario still certifies.
expect 1 "reduced safety finds the fork cover" -- \
  safety -m nsdp -n 2 -p gotL.0 -p gotL.1 -e smv --reduce
expect_out "scenario (certified):" "reduced safety scenario is certified"

# Reduction telemetry reaches --stats (rw collapses dramatically).
expect 0 "reduced rw analyze with --stats" -- \
  analyze -m rw -n 6 -e full --reduce --stats
expect_out "reduce.ratio" "reduction ratio gauge is reported"
expect_out "reduce.rule" "per-rule counters are reported"

# --- witness replays through julie trace (file round-trip) ------------

# `trace` on the same model must replay its own reconstruction; the
# replay printer re-validates every step, so a bad witness dies here.
expect 1 "trace replays the witness step by step" -- trace -m nsdp -n 2
expect_out "deadlock reached by:" "replay header present"
expect_out "takeL" "replay mentions a fork acquisition"

# --- resource governance: --timeout and --mem-mb ----------------------

# A one-second deadline on a huge instance: inconclusive (exit 2), with
# the typed reason called out instead of a crash or a hang.
expect 2 "deadline-bound analyze is inconclusive" -- \
  analyze -m nsdp -n 12 -e full --timeout 1
expect_out "deadline" "the deadline is named as the stop reason"

# The typed reason also lands in the telemetry trace.
metrics="$(mktemp)"
expect 2 "deadline run with --metrics-out" -- \
  analyze -m nsdp -n 12 -e full --timeout 1 --metrics-out "$metrics"
if grep -q '"stop_reason":"deadline"' "$metrics"; then
  echo "ok:   metrics record stop_reason deadline"
else
  echo "FAIL: metrics lack stop_reason deadline"
  cat "$metrics" | sed 's/^/      /'
  failures=$((failures + 1))
fi
rm -f "$metrics"

# A violation found before the deadline is still a verdict.
expect 1 "deadlock beats a generous deadline" -- \
  analyze -m nsdp -n 4 -e gpo --timeout 60

# A soft memory budget degrades to inconclusive instead of crashing.
expect 2 "memory-bound symbolic run is inconclusive" -- \
  analyze -m nsdp -n 10 -e smv --mem-mb 64
expect_out "inconclusive" "memory stop is inconclusive"

# The budgets ride along on trace and certify too.
expect 2 "deadline-bound trace is inconclusive" -- \
  trace -m nsdp -n 12 -e full --timeout 1
expect 2 "deadline-bound certify is inconclusive" -- \
  certify -m nsdp -n 12 -e full --timeout 1

# --- parser errors are located ----------------------------------------

badnet="$(mktemp).net"
printf 'net broken\npl p (1\n' > "$badnet"
expect 2 "malformed net file is a usage error" -- analyze -f "$badnet"
expect_out "line 2" "parse error carries its location"
rm -f "$badnet"

# --- verification service: julie serve / julie submit -----------------

sock="$(mktemp -u).sock"
"$JULIE" serve --socket "$sock" --queue-limit 4 >/dev/null 2>&1 &
serve_pid=$!

ready=0
for _ in $(seq 1 100); do
  if "$JULIE" submit --socket "$sock" --ping >/dev/null 2>&1; then
    ready=1
    break
  fi
  sleep 0.05
done
if [ "$ready" -ne 1 ]; then
  echo "FAIL: julie serve did not come up on $sock"
  failures=$((failures + 1))
else
  expect 1 "served NSDP verdict follows the exit contract" -- \
    submit --socket "$sock" -m nsdp -n 3
  expect_out "VIOLATED" "submit reports the violation"
  expect_out "certified" "the served witness is certified"
  expect 1 "the repeated query is a cache hit" -- \
    submit --socket "$sock" -m nsdp -n 3
  expect_out "cached" "the repeat is served from the result cache"
  expect_out "certified" "the cached witness re-certified on the hit"
  expect 0 "served clean verdict exits 0" -- submit --socket "$sock" -m over -n 3
  expect 1 "in-batch duplicates are deduped" -- \
    submit --socket "$sock" -m fig2 -n 5 --repeat 3
  expect_out "deduped" "dedupe is reported per job"
  expect 2 "an oversized batch is rejected whole" -- \
    submit --socket "$sock" -m fig2 -n 5 --repeat 5
  expect_out "queue_full" "the typed reject names its reason"
  expect 2 "served truncated clean run is inconclusive" -- \
    submit --socket "$sock" -m asat -n 4 -e full --max-states 50
  expect 2 "an unknown model fails that job only" -- \
    submit --socket "$sock" -m no-such-model
  for bad in asat:6 nsdp:1 rw:1 over:1; do
    model="${bad%:*}" size="${bad#*:}"
    expect 2 "a size the model rejects fails that job only ($model $size)" -- \
      submit --socket "$sock" -m "$model" -n "$size"
    expect_out "failed:" "the failed job carries its reason ($model $size)"
  done
  expect 0 "the daemon keeps serving after bad jobs" -- \
    submit --socket "$sock" -m over -n 3
  expect 0 "submit --stats returns the cache stats" -- \
    submit --socket "$sock" --stats
  expect_out "serve.cache.hit" "stats carry the cache counters"
  expect 0 "submit --shutdown stops the daemon" -- \
    submit --socket "$sock" --shutdown
fi
wait "$serve_pid" 2>/dev/null
rm -f "$sock"

# --- crash safety: --cache-dir journal, kill -9, graceful drain -------

wait_ready() {
  local s="$1" n
  for n in $(seq 1 100); do
    if "$JULIE" submit --socket "$s" --ping >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.05
  done
  return 1
}

cachedir="$(mktemp -d)"
sock="$(mktemp -u).sock"
"$JULIE" serve --socket "$sock" --cache-dir "$cachedir" >/dev/null 2>&1 &
serve_pid=$!

if ! wait_ready "$sock"; then
  echo "FAIL: persistent julie serve did not come up on $sock"
  failures=$((failures + 1))
else
  expect 1 "persistent daemon answers and journals the verdict" -- \
    submit --socket "$sock" -m nsdp -n 3
  expect_out "certified" "the journaled witness is certified"

  # kill -9 mid-batch: a long exploration is in flight when the
  # daemon dies.  Nothing partial may survive into the next life.
  "$JULIE" submit --socket "$sock" -m nsdp -n 10 -e full >/dev/null 2>&1 &
  inflight_pid=$!
  sleep 0.3
  kill -9 "$serve_pid" 2>/dev/null
  wait "$serve_pid" 2>/dev/null
  kill "$inflight_pid" 2>/dev/null
  wait "$inflight_pid" 2>/dev/null

  # Restart on the same --cache-dir: the journal recovers, the cached
  # verdict is served without re-exploration, byte-identical.
  serve_log="$(mktemp)"
  "$JULIE" serve --socket "$sock" --cache-dir "$cachedir" >"$serve_log" 2>&1 &
  serve_pid=$!
  if ! wait_ready "$sock"; then
    echo "FAIL: julie serve did not come back up after kill -9"
    failures=$((failures + 1))
  else
    if grep -q "cache recovered" "$serve_log"; then
      echo "ok:   restart reports the recovered cache"
    else
      echo "FAIL: restart banner lacks the recovery report"
      sed 's/^/      /' "$serve_log"
      failures=$((failures + 1))
    fi
    expect 1 "recovered cache serves the journaled verdict" -- \
      submit --socket "$sock" -m nsdp -n 3
    expect_out "cached" "the verdict survived kill -9 as a cache hit"
    expect_out "certified" "the recovered witness re-certified on the hit"
    expect 0 "stats expose the recovery report" -- \
      submit --socket "$sock" --stats
    expect_out '"recovered":' "stats carry serve.recovered"
    expect_out '"serve.recovered":1' "exactly the finished entry recovered"

    # Graceful drain: SIGTERM finishes in-flight work, flushes the
    # journal, and exits 0.
    kill -TERM "$serve_pid" 2>/dev/null
    wait "$serve_pid" 2>/dev/null
    drain_code=$?
    if [ "$drain_code" -eq 0 ]; then
      echo "ok:   SIGTERM drains the daemon with exit 0"
    else
      echo "FAIL: drained daemon exited $drain_code, want 0"
      failures=$((failures + 1))
    fi

    # Third life: the drained journal still serves the entry.
    "$JULIE" serve --socket "$sock" --cache-dir "$cachedir" >/dev/null 2>&1 &
    serve_pid=$!
    if wait_ready "$sock"; then
      expect 1 "the drained journal still serves after restart" -- \
        submit --socket "$sock" -m nsdp -n 3
      expect_out "cached" "cache hit across a graceful drain"
      expect 0 "drained daemon stops via --shutdown" -- \
        submit --socket "$sock" --shutdown
    else
      echo "FAIL: julie serve did not come up after the drain"
      failures=$((failures + 1))
    fi
  fi
  rm -f "$serve_log"
fi
wait "$serve_pid" 2>/dev/null
rm -f "$sock"
rm -rf "$cachedir"

# --- client retry policy ----------------------------------------------

expect 2 "submit --retries gives up on a dead endpoint" -- \
  submit --socket "$(mktemp -u).sock" --retries 2 --backoff-ms 1 -m over -n 3
expect_out "connect" "the final failure names the refused connection"

# --- endpoints: a bad one is a usage error, never exit 125 ------------

expect 2 "serve in a missing directory is a usage error" -- \
  serve --socket "$(mktemp -u -d)/julie.sock"
expect_out "cannot listen on unix:" "the failure names the endpoint"
expect 2 "submit to an unknown host is a usage error" -- \
  submit --port 9 --host no-such-host.invalid --ping
expect_out "unknown host" "the unknown host is named"

echo
if [ "$failures" -gt 0 ]; then
  echo "$failures CLI check(s) failed"
  exit 1
fi
echo "all CLI checks passed"
