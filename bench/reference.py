"""Reference work: fixed pure-Python work that times the host, not mvlab.

The host is a shared virtual machine whose speed drifts by 30 % or more over
minutes, in CPU time as well as in wall time. The reference uses no mvlab
code, so no change to mvlab moves it; an mvlab time divided by reference
time taken over the same minutes cancels the drift.

Two forms, matched to how each workload runs:

  rounds(n)   n rounds of compute of about 0.1 s each, timed in-process. A
              library child times them around its timed body.
  python3 bench/reference.py ROUNDS
              a reference child: interpreter start, imports of a fixed set
              of standard-library modules (C extensions among them, as
              numpy's import loads), then ROUNDS rounds. run.py times the
              whole process from spawn to reap, like an mvlab.cli process.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

_A, _B = 3 ** 20_000, 5 ** 13_000  # about 31 700 and 30 200 bits
STDLIB_IMPORTS = ("argparse", "asyncio", "csv", "ctypes", "decimal", "email.mime.multipart", "http.client",
                  "logging", "sqlite3", "ssl", "unittest", "xml.etree.ElementTree", "zipfile")


def _work() -> int:
    """Interpreter dispatch, big-integer multiply and gcd."""
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    for k in range(1, 41):
        acc ^= (_A * (_B + k)).bit_length()
    for k in range(1, 21):
        acc ^= math.gcd(_A + k, _B + 3 * k)
    return acc


def rounds(repeats: int) -> list[tuple[float, float]]:
    """Wall and CPU seconds of each of `repeats` rounds of the reference work."""
    out = []
    for _ in range(repeats):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _work()
        out.append((time.perf_counter() - wall0, time.process_time() - cpu0))
    return out


if __name__ == "__main__":
    for module in STDLIB_IMPORTS:
        importlib.import_module(module)
    rounds(int(sys.argv[1]))
