"""Repository benchmark: one run of one workload, result as JSON.

Run from the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  The workload
runs in a fresh child process (``perfbench/workload.py``) in its own
session; this process is a child subreaper, so anything the workload
leaves behind is re-parented here.  After the child exits the run fails
if a descendant process is still alive after a short grace period, or if
a new ``/dev/shm`` segment remains.  A child that overruns its time limit
gets SIGTERM (it then closes its service), then its whole process group
gets SIGKILL, and everything is reaped.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  ``correct`` is false when any output check failed.
Operations the program itself rejected (a failed verification gate, a
429) are counted in ``failed``, not dropped.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import children

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the whole run must end within 180 s
CHILD_TIMEOUT = 150.0
#: after SIGTERM, time for the workload to close its service
TERM_GRACE = 10.0
#: how long a re-parented process (the multiprocessing resource tracker)
#: may take to notice its parent is gone
ORPHAN_GRACE = 5.0
PR_SET_CHILD_SUBREAPER = 36


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _reap(pid: int) -> bool:
    """Reap *pid* if it has exited; True once it is gone."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid


def _collect_orphans() -> list[str]:
    """Wait out, then kill and reap, processes re-parented to us."""
    deadline = time.monotonic() + ORPHAN_GRACE
    while True:
        alive = [pid for pid in children() if not _reap(pid)]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    left = []
    for pid in alive:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace")
            os.kill(pid, signal.SIGKILL)
        except OSError:
            cmd = "?"
        os.waitpid(pid, 0)
        left.append(f"{pid} {cmd.strip()[:120]}")
    return left


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's source (src/repro) is missing",
              file=sys.stderr)
        return 2
    declared = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("perfbench: cannot become a child subreaper", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    shm_before = _shm_segments()
    # a fixed build id keeps the service from running git, which would
    # search the directories above the checkout; a fixed hash seed makes
    # set and dict iteration order, and so the work counters, repeat
    env = dict(os.environ, TMPDIR=str(tmp), REPRO_GIT_SHA="perfbench",
               PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp),
    ]
    problems = []
    stopped = False
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        problems.append(f"workload overran {CHILD_TIMEOUT:.0f} s and was stopped")
        stopped = True
        child.terminate()
        try:
            out, _ = child.communicate(timeout=TERM_GRACE)
        except subprocess.TimeoutExpired:
            pass
        # also takes down the resource tracker that would unlink the
        # workload's shared memory, so the segments are unlinked below
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        out, _ = child.communicate()
    finally:
        problems += [f"process left running: {p}" for p in _collect_orphans()]
        leaked = sorted(_shm_segments() - shm_before)
        problems += [f"shared-memory segment left: /dev/shm/{n}" for n in leaked]
        if stopped:
            for name in leaked:
                try:
                    os.unlink(f"/dev/shm/{name}")
                except OSError:
                    pass
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    if child.returncode != 0:
        problems.append(f"workload exited with {child.returncode}")
    lines = out.decode(errors="replace").strip().splitlines()
    if problems or not lines:
        for line in problems or ["workload printed no result"]:
            print(f"perfbench: {line}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]}
            for name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
