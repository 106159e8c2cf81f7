"""The served_zipf server process: a :class:`PolicyServer` over a minted
registry, optionally traced, that reports on its way out.

Started by ``run.py`` (never by hand)::

    python3 -B perfbench/serve.py --root DIR --report FILE [--trace]

It prints one JSON line ``{"port": N}`` once it is serving, serves until
``POST /drain``, then writes ``FILE``: its peak RSS and, when traced,
the path of its Chrome trace next to it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import inputs
    from repro import PolicyPipeline, PolicyServer, ServerConfig
    from tracing import Tracer

    server = PolicyServer(
        ServerConfig(
            root=args.root,
            port=0,
            max_warm=inputs.SERVED_MAX_WARM,
            warm_on_start=inputs.SERVED_MAX_WARM,
            handle_signals=False,
        ),
        pipeline=PolicyPipeline(),
    )
    server.start()
    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        print(json.dumps({"port": server.address[1]}), flush=True)
        drained = server.serve_until_drained()
    finally:
        tracer.restore()
        server.stop()
    report = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "served": server.metrics.server_requests,
        "drained_clean": drained.drained_clean,
        "trace": None,
    }
    if args.trace:
        trace_path = Path(args.report).with_suffix(".trace.json")
        tracer.write_chrome_trace(trace_path)
        report["trace"] = str(trace_path)
    Path(args.report).write_text(json.dumps(report), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
