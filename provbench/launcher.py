"""The benchmark's server process: the service with its defaults, on HTTP.

Started by :mod:`run` from the checkout root::

    python3 provbench/launcher.py --root DIR [--corpus FILE] [--trace FILE]

It opens ``ProvenanceService(DIR)`` (4 shards, ``workers="auto"``,
fsync off), loads ``--corpus`` (JSON lines of journal-codec events)
through ``record_event`` and flushes, starts a ``ProvenanceServer`` on
an ephemeral port, and prints ``ready <port>``.  Then it obeys one
command per stdin line, answering each with one stdout line:

* ``start`` — begin the timed phase: spans on (``--trace``), and
  answer ``cpu <seconds>`` (process user+sys CPU so far);
* ``stop`` — end it: spans off, answer ``cpu <seconds> hwm <kB>``.

At end of input it stops the server, closes the service, writes the
spans to ``--trace``, and answers ``bye``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--corpus")
    parser.add_argument("--trace")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        from tracer import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    from repro.service import (
        ProvenanceServer,
        ProvenanceService,
        decode_event,
    )

    service = ProvenanceService(args.root)
    try:
        if args.corpus:
            with open(args.corpus, encoding="utf-8") as handle:
                for line in handle:
                    service.record_event(decode_event(json.loads(line)))
            service.flush()
        server = ProvenanceServer(service).start()
        try:
            _say(f"ready {server.port}")
            for line in sys.stdin:
                command = line.strip()
                if command == "start":
                    if recorder is not None:
                        recorder.start()
                    _say(f"cpu {_cpu_seconds():.6f}")
                elif command == "stop":
                    if recorder is not None:
                        recorder.stop()
                    _say(f"cpu {_cpu_seconds():.6f} hwm {_peak_rss_kb()}")
                else:
                    _say(f"error unknown command {command!r}")
        finally:
            server.stop()
    finally:
        service.close()
    if recorder is not None:
        recorder.dump(args.trace)
    _say("bye")
    return 0


if __name__ == "__main__":
    sys.exit(main())
