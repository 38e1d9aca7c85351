#!/usr/bin/env bash
# CI/local gate: byte-compile the whole package, then run the tier-1 suite.
#
#   scripts/check.sh            # full suite (what CI runs)
#   scripts/check.sh --fast     # skip bench-style tests (-m "not slow")
#
# Every mode first runs the engine import-hygiene guard: repro.dse.engine
# and the explorer must import with nothing beyond NumPy + the stdlib, and
# never with a test oracle (tests/oracles) in their import closure.  The
# default and --fast modes also resolve every perfbench/layers.py hook
# target and fail with the name of any that no longer exists in src/.
#   scripts/check.sh --par      # cross-process store-stress tests only,
#                               # plus marker-hygiene checks
#   scripts/check.sh --service  # service smoke: boot `python -m repro
#                               # serve` on an ephemeral port, submit two
#                               # workloads over HTTP, assert digests match
#                               # direct Session.run, clean shutdown
#   scripts/check.sh --fleet    # fleet smoke: boot a router + 2 worker
#                               # subprocesses sharing one store, route
#                               # over HTTP, assert digests match direct
#                               # Session.run and the whole fleet drains
#                               # cleanly
#   scripts/check.sh --large    # out-of-core smoke: stream a >=10^5-
#                               # candidate space under a hard RSS ceiling
#                               # and assert streamed results are digest-
#                               # identical to explore_columnar on the
#                               # paper-scale subspace, across chunk sizes
#                               # and a shuffled chunk order
#   scripts/check.sh --sim      # simulation tier: the vectorized-vs-scalar
#                               # differential suite, the frame/golden
#                               # boundary-contract regressions and the
#                               # validate cross-check tests, with a
#                               # wall-clock budget so the Hypothesis suite
#                               # can't silently balloon
#   scripts/check.sh --obs      # observability tier: the tracing/metrics/
#                               # propagation suite, then the tracing-
#                               # overhead gate (traced run_many batches
#                               # digest-identical to untraced ones, the
#                               # tracer's own CPU time under 5% of the
#                               # batch's; wall delta printed), then a
#                               # live-server smoke — client root span
#                               # rides the X-Repro-Trace header across a
#                               # real process boundary, the trace comes back
#                               # via GET /trace/<id> and the CLI, and
#                               # /metrics strict-parses as 0.0.4 with
#                               # correctly typed families, and every
#                               # counter is non-decreasing across a job
#   scripts/check.sh -k store   # extra args are passed through to pytest
set -euo pipefail
cd "$(dirname "$0")/.."

run_pytest() {
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest "$@"
}

check_engine_imports() {
    # Import hygiene: the exploration engines must import with nothing
    # beyond NumPy and the stdlib — test-only/optional packages sneaking
    # into their import closure would break minimal production
    # deployments.  The blocked import hook fails the build the moment one
    # is touched.  The differential oracles live under tests/oracles and
    # must stay out of the src/ closure too.
    python - <<'PYEOF'
import builtins
import sys

sys.path.insert(0, "src")
BLOCKED = ("hypothesis", "pytest", "matplotlib", "pandas", "scipy", "yaml",
           "tests", "oracles")
real_import = builtins.__import__


def guarded(name, *args, **kwargs):
    root = name.split(".")[0]
    if root in BLOCKED:
        raise SystemExit(
            f"error: repro.dse pulled {root!r} into its import closure "
            f"(only NumPy + stdlib are allowed; test oracles stay in tests/)")
    return real_import(name, *args, **kwargs)


builtins.__import__ = guarded
import repro.dse.engine  # noqa: F401  (the guard is the side effect)
import repro.dse.stream  # noqa: F401  (same deployment footprint)
import repro.dse.explorer  # noqa: F401  (the one exploration entry point)

leaked = sorted(name for name in sys.modules
                if name.split(".")[0] in BLOCKED)
assert not leaked, leaked
print(f"engine import guard ok ({len(sys.modules)} modules, "
      f"numpy {sys.modules['numpy'].__version__})")
PYEOF
}

check_simulation_imports() {
    # Same deployment-footprint rule for the simulation/validation layer:
    # it backs the `validate` job class in production services, so it must
    # import with nothing beyond NumPy + the stdlib.  The scalar simulation
    # oracles live under tests/oracles and must stay out of it too.
    python - <<'PYEOF'
import builtins
import sys

sys.path.insert(0, "src")
BLOCKED = ("hypothesis", "pytest", "matplotlib", "pandas", "scipy", "yaml",
           "tests", "oracles")
real_import = builtins.__import__


def guarded(name, *args, **kwargs):
    root = name.split(".")[0]
    if root in BLOCKED:
        raise SystemExit(
            f"error: repro.simulation pulled {root!r} into its import "
            f"closure (only NumPy + stdlib are allowed; test oracles stay "
            f"in tests/)")
    return real_import(name, *args, **kwargs)


builtins.__import__ = guarded
import repro.simulation  # noqa: F401  (the guard is the side effect)
import repro.simulation.validation  # noqa: F401  (validate job backend)

leaked = sorted(name for name in sys.modules
                if name.split(".")[0] in BLOCKED)
assert not leaked, leaked
print(f"simulation import guard ok ({len(sys.modules)} modules, "
      f"numpy {sys.modules['numpy'].__version__})")
PYEOF
}

check_obs_imports() {
    # The observability layer ships everywhere the engine does (every
    # server mounts a TraceStore, every session records metrics), so it
    # gets the same deployment-footprint rule: NumPy + stdlib only.
    python - <<'PYEOF'
import builtins
import sys

sys.path.insert(0, "src")
BLOCKED = ("hypothesis", "pytest", "matplotlib", "pandas", "scipy", "yaml")
real_import = builtins.__import__


def guarded(name, *args, **kwargs):
    root = name.split(".")[0]
    if root in BLOCKED:
        raise SystemExit(
            f"error: repro.obs pulled optional dependency {root!r} "
            f"into its import closure (only NumPy + stdlib are allowed)")
    return real_import(name, *args, **kwargs)


builtins.__import__ = guarded
import repro.obs  # noqa: F401  (the guard is the side effect)
import repro.obs.trace  # noqa: F401
import repro.obs.metrics  # noqa: F401
import repro.obs.profile  # noqa: F401

non_stdlib = [name for name in BLOCKED if name in sys.modules]
assert not non_stdlib, non_stdlib
print(f"obs import guard ok ({len(sys.modules)} modules, "
      f"numpy {sys.modules['numpy'].__version__})")
PYEOF
}

check_bench_hooks() {
    # The traced benchmark run wraps each perfbench/layers.py TARGETS entry
    # by name, and its install() raises on the first one that is gone.
    # Resolve them all here so a rename or deletion in src/ names every
    # missing hook before the benchmark ever runs.
    python - <<'PYEOF'
import importlib
import sys

sys.path[:0] = ["src", "perfbench"]
from layers import TARGETS

missing = []
for name, module_name, path, _attributes in TARGETS:
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or leaf not in vars(owner):
        missing.append(f"{name}: {module_name}.{path}")
if missing:
    raise SystemExit("error: perfbench hook targets missing from src/:\n  "
                     + "\n  ".join(missing))
print(f"bench hook guard ok ({len(TARGETS)} targets)")
PYEOF
}

# The guards are cheap, so every mode runs them (CI's flagless invocation too).
check_engine_imports
check_simulation_imports
check_obs_imports

PYTEST_ARGS=(-x -q)
case "${1:-}" in
--fast)
    shift
    PYTEST_ARGS+=(-m "not slow")
    ;;
--service)
    shift
    python -m compileall -q src
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python scripts/service_smoke.py "$@"
    exit $?
    ;;
--fleet)
    shift
    python -m compileall -q src
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python scripts/fleet_smoke.py "$@"
    exit $?
    ;;
--large)
    shift
    python -m compileall -q src
    # A fresh process so ru_maxrss measures the streaming run alone.
    python scripts/large_smoke.py "$@"
    exit $?
    ;;
--sim)
    shift
    python -m compileall -q src
    # Budgeted differential run: the property suite is the bit-identity
    # oracle for every vectorized path, and it must stay fast enough to run
    # on every push.  `timeout` turns a runaway Hypothesis search into a
    # hard failure instead of a stalled CI job.
    sim_status=0
    timeout 300 env PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q \
        tests/property/test_simulator_differential.py \
        tests/simulation/test_frame_and_golden.py \
        tests/simulation/test_validate_workload.py \
        tests/service/test_validate_job.py "$@" || sim_status=$?
    if [ "$sim_status" -eq 124 ]; then
        echo "error: simulation tier exceeded its 300s wall-clock budget" >&2
    fi
    exit "$sim_status"
    ;;
--obs)
    shift
    python -m compileall -q src
    # The full observability suite first (span trees, header codec,
    # context handoff, typed exposition, propagation edges), then
    # the smoke script: the tracing-overhead gate (bit-neutral, <5%),
    # and a real `python -m repro serve` subprocess proving the
    # X-Repro-Trace header joins traces across a process boundary and
    # /metrics survives the strict 0.0.4 parser, with no counter family
    # going down between a scrape before and one after its job.
    run_pytest -x -q tests/obs "$@"
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python scripts/obs_smoke.py
    exit $?
    ;;
--par)
    shift
    python -m compileall -q src
    # Marker hygiene: every `par` test must also carry `slow`, or it leaks
    # into the default fast tier (`--fast` selects -m "not slow").  pytest
    # exits 5 when the selection collects nothing — that is the good case.
    if run_pytest --collect-only -q -m "par and not slow" >/dev/null 2>&1; then
        echo "error: par-marked tests without the slow marker would leak" \
             "into the fast tier-1 run:" >&2
        run_pytest --collect-only -q -m "par and not slow" >&2
        exit 1
    fi
    exec_status=0
    run_pytest -x -q -m par "$@" || exec_status=$?
    exit "$exec_status"
    ;;
esac

check_bench_hooks
python -m compileall -q src
run_pytest "${PYTEST_ARGS[@]}" "$@"
