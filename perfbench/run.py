"""Benchmark driver: one supervised run of one workload.

    python3 perfbench/run.py --workload fresh --seed 1 --seconds 20 --trace 0

Run from the repository root.  The driver builds nothing (the package
is pure Python; the compiled cell evaluator is built on first use by
the program itself) and measures nothing inside the system under test.
It:

* starts the measured process (``python3 -m perfbench.sut``) in a
  process group of its own, with ``TMPDIR`` and the JIT cache pointed
  inside ``.perfbench/`` so the run reads and writes only inside the
  checkout;
* becomes a child subreaper, so every descendant that outlives its
  parent is re-parented here and can still be found and reaped;
* samples the proportional set size of the whole descendant tree to
  report ``peak_rss_mb``;
* on SIGTERM/SIGINT, or when the run ends, tears the tree down; any
  process or new ``/dev/shm`` segment still present after the orderly
  teardown is a straggler: it is removed and the run exits non-zero;
* prints the result as one JSON object on the last line of stdout.

The measured process's stderr (and each serve node's) goes to the run
log ``.perfbench/logs/<workload>-seed<seed>-trace<t>.log``.
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
import threading
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
STATE = ROOT / ".perfbench"
#: Seconds an interrupted run's processes get to exit after SIGTERM
#: before they are killed.
TERM_GRACE_S = 10.0
#: Hard wall-clock cap on one measured process.
RUN_TIMEOUT_S = 140.0
PR_SET_CHILD_SUBREAPER = 36


def _set_subreaper() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _children(pid: int) -> list[int]:
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    out = []
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
            out += [int(c) for c in text.split()]
        except OSError:
            pass
    return out


def descendants(root: int) -> list[int]:
    """Every live process below ``root`` (zombies included)."""
    out, todo = [], [root]
    while todo:
        for child in _children(todo.pop()):
            out.append(child)
            todo.append(child)
    return out


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - no /dev/shm
        return set()


def _pss_kb(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        for line in text.splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    try:
        pages = int(Path(f"/proc/{pid}/statm").read_text().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") // 1024
    except (OSError, ValueError, IndexError):
        return 0


class MemorySampler(threading.Thread):
    """Peak summed PSS of a process tree, sampled every 100 ms."""

    def __init__(self, root: int) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.peak_kb = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(0.1):
            total = sum(_pss_kb(p) for p in descendants(self.root))
            self.peak_kb = max(self.peak_kb, total)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def _reap_all() -> None:
    """Collect exit statuses of re-parented orphans (we are their
    subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _live() -> list[int]:
    """This run's processes that have not exited (zombies excluded)."""
    _reap_all()
    live = []
    for pid in descendants(os.getpid()):
        try:
            state = Path(f"/proc/{pid}/stat").read_text() \
                .rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            live.append(pid)
    return live


def _signal_all(signum: int) -> list[str]:
    """Send ``signum`` to every live process of this run; returns their
    command lines."""
    hit = []
    for pid in _live():
        try:
            cmd = Path(f"/proc/{pid}/cmdline").read_bytes() \
                .replace(b"\0", b" ").decode(errors="replace")
            os.kill(pid, signum)
            hit.append(f"process {pid}: {cmd.strip()}")
        except OSError:
            pass
    return hit


def tear_down(shm_before: set[str], grace_s: float) -> list[str]:
    """Wait up to ``grace_s`` for the run's processes to exit on their
    own, then kill the rest and unlink every shared-memory segment the
    run left; returns what had to be removed."""
    deadline = time.monotonic() + grace_s
    while _live() and time.monotonic() < deadline:
        time.sleep(0.05)
    removed = []
    for _ in range(100):
        hit = _signal_all(signal.SIGKILL)
        if not hit:
            break
        removed += hit
        time.sleep(0.05)
    for name in sorted(shm_segments() - shm_before):
        try:
            os.unlink(f"/dev/shm/{name}")
            removed.append(f"shm segment {name}")
        except OSError:
            pass
    return removed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if SPEC is None or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout holding BENCHMARK.json and the "
              "repro sources under src/", file=sys.stderr)
        return 2
    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    _set_subreaper()
    run_id = uuid.uuid4().hex[:8]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = STATE / "tmp" / f"{tag}-{run_id}"
    run_dir.mkdir(parents=True)
    (STATE / "logs").mkdir(parents=True, exist_ok=True)
    log_path = STATE / "logs" / f"{tag}.log"
    result_path = run_dir / "result.json"
    shm_before = shm_segments()

    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])),
        "TMPDIR": str(run_dir),
        "REPRO_JIT_CACHE": str(STATE / "jit"),
    })
    cmd = [sys.executable, "-m", "perfbench.sut",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path), "--run-dir", str(run_dir)]

    interrupted: list[int] = []

    def on_signal(signum, _frame) -> None:
        interrupted.append(signum)

    old = {s: signal.signal(s, on_signal)
           for s in (signal.SIGTERM, signal.SIGINT)}
    with open(log_path, "ab") as log:
        log.write(f"== {' '.join(cmd)}\n".encode())
        log.flush()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=log, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        sampler = MemorySampler(os.getpid())
        sampler.start()
        started = time.monotonic()
        try:
            while proc.poll() is None and not interrupted:
                if time.monotonic() - started > RUN_TIMEOUT_S:
                    interrupted.append(0)
                    break
                time.sleep(0.05)
        finally:
            sampler.stop()
            if proc.poll() is None or interrupted:
                # Interrupted: stop the whole tree.  Serve nodes get
                # SIGTERM like everything else; what outlives the
                # grace period is killed.
                _signal_all(signal.SIGTERM)
                proc.wait()
                removed = tear_down(shm_before, TERM_GRACE_S)
            else:
                # A normal exit has already torn everything down;
                # whatever is left (beyond helpers that exit on their
                # own within the grace period) is a straggler.
                removed = tear_down(shm_before, 5.0)
            for s, h in old.items():
                signal.signal(s, h)
        for line in removed:
            log.write(f"removed: {line}\n".encode())
    result = (json.loads(result_path.read_text())
              if result_path.is_file() else None)
    shutil.rmtree(run_dir, ignore_errors=True)

    if interrupted:
        what = "timed out" if interrupted[0] == 0 else \
            f"interrupted by signal {interrupted[0]}"
        print(f"error: run {what}; see {log_path}", file=sys.stderr)
        return 128 + (interrupted[0] or 9)
    if removed:
        print(f"error: {len(removed)} straggler(s) had to be removed "
              f"(see {log_path}): {removed}", file=sys.stderr)
        return 3
    if proc.returncode != 0 or result is None:
        print(f"error: measured process exited {proc.returncode}; see "
              f"{log_path}", file=sys.stderr)
        return 1
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {
            "value": sampler.peak_kb / 1024.0, "unit": "MB"}
        wanted = SPEC["end_to_end"]
    else:
        wanted = SPEC["per_layer"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            print(f"error: metric {m['name']} was not measured",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    ok = result["correct"] and result["failed"] == 0
    print(json.dumps({"correct": bool(ok),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
