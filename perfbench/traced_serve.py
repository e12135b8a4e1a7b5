"""Run ``repro serve`` with the ledger's wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPANS_DIR serve [ARGS...]``

Same service, flags and code path as ``python -m repro serve``; the only
difference is the wrappers from :mod:`perfbench.ledger`.  After the
service has drained and stopped, its spans and its jobs' own
queue/execute/render spans go to ``SPANS_DIR/service-<pid>.json``; each
pool worker writes ``SPANS_DIR/worker-<pid>.json`` as it exits.
"""

import os
import sys


def main(argv: list[str]) -> int:
    spans_dir = argv[0]
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from perfbench import ledger
    from repro import cli

    os.environ[ledger.SPANS_ENV] = spans_dir
    recorder = ledger.Recorder()
    ledger.install_service(recorder)
    status = cli.main(argv[1:])
    jobs = ledger.job_records(recorder.service) \
        if recorder.service is not None else []
    recorder.dump(spans_dir, "service", jobs=jobs)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
