"""Run ontograft CLI stages in a fresh process, as a user would, and write
their timings as JSON.

    python3 stage.py --out RESULT.json [--trace-id ID] \\
        -- <cli arguments> [-- <cli arguments> ...]

The package import and the set-up calls (``load_obo``, ``Tokenizer.load``,
``load_model``, ``init_model``) are timed separately from the rest of
``cli.main``.  Several argument lists are called in the order given, so
that stages taking milliseconds can be timed many times over the same
stretch of the run.  With ``--trace-id`` every public
function of the measured modules is wrapped before ``cli.main`` runs, and
the spans go into the result.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time


def main() -> int:
    started = time.perf_counter()
    parts: list[list[str]] = [[]]
    for arg in sys.argv[1:]:
        if arg == "--":
            parts.append([])
        else:
            parts[-1].append(arg)
    own, groups = parts[0], parts[1:]
    options = dict(zip(own[::2], own[1::2]))
    from ontograft import cli

    import_s = time.perf_counter() - started
    import spans
    import work
    from common import peak_rss_mb

    trace_id = options.get("--trace-id", "")
    recorder = spans.SpanRecorder(trace_id)
    if trace_id:
        spans.install(recorder, work.HOOKS)
    else:
        spans.install(recorder, {}, only=spans.SETUP_FUNCTIONS)
    setup_names = set(spans.SETUP_FUNCTIONS)
    calls = []
    for cli_args in groups:
        # start each call from the same collector state, with every earlier
        # call's files on disk (see the README)
        gc.collect()
        os.sync()
        first_span = len(recorder.spans)
        started = time.perf_counter()
        with recorder.span(f"stage.{cli_args[0]}"):
            code = cli.main(cli_args)
        main_s = time.perf_counter() - started
        setup_s = sum(
            end - begin for name, begin, end, _ in recorder.spans[first_span:]
            if name in setup_names
        )
        calls.append({"stage": cli_args[0], "code": code, "main_s": main_s,
                      "setup_load_s": setup_s})
        if code != 0:
            break
    result = {
        "code": max(c["code"] for c in calls),
        "import_s": import_s,
        "calls": calls,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace_id:
        result["trace"] = recorder.dump()
    with open(options["--out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["code"]


if __name__ == "__main__":
    sys.exit(main())
