"""The benchmark leaves nothing behind.

    python3 -m pytest perfbench/test_run.py -q

Runs the driver twice — once to completion, once killed with SIGTERM
while serve nodes are up — and checks that afterwards no process
carrying the run's environment token and no new ``/dev/shm`` segment
remains (``/dev/shm`` is compared against a snapshot taken before the
run, since unrelated segments may already exist).  Each case takes
about a minute.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py"),
       "--workload", "fresh", "--seed", "7", "--seconds", "2",
       "--trace", "0"]


def _tagged(token: str) -> list[int]:
    needle = f"TEST_TOKEN={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            env = Path(f"/proc/{entry}/environ").read_bytes()
            state = Path(f"/proc/{entry}/stat").read_text() \
                .rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in env.split(b"\0") and state != "Z":
            found.append(int(entry))
    return found


def _start(token: str) -> subprocess.Popen:
    env = dict(os.environ, TEST_TOKEN=token)
    return subprocess.Popen(RUN, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _assert_clean(token: str, shm_before: set[str]) -> None:
    deadline = time.monotonic() + 10.0
    while _tagged(token) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _tagged(token) == []
    assert set(os.listdir("/dev/shm")) - shm_before == set()


def test_normal_run_leaves_nothing():
    token = uuid.uuid4().hex
    shm_before = set(os.listdir("/dev/shm"))
    proc = _start(token)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    _assert_clean(token, shm_before)


def test_sigterm_mid_run_leaves_nothing():
    token = uuid.uuid4().hex
    shm_before = set(os.listdir("/dev/shm"))
    proc = _start(token)
    # Wait until serve nodes run beside the driver and measured process.
    deadline = time.monotonic() + 240.0
    while time.monotonic() < deadline:
        if any(b"repro\0serve" in Path(f"/proc/{p}/cmdline").read_bytes()
               for p in _tagged(token)
               if Path(f"/proc/{p}").exists()):
            break
        time.sleep(0.1)
    else:
        proc.kill()
        raise AssertionError("serve nodes never started")
    proc.send_signal(signal.SIGTERM)
    out, _err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert out.strip() == ""
    _assert_clean(token, shm_before)
