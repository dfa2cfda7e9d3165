"""One benchmark query, run in a fresh interpreter (so trofey's caches are cold).

Usage: python3 child.py META TRACE cli ARG...            -> trofey.cli.main(ARGS)
       python3 child.py META TRACE product GRAPH ORDER   -> labeled_series_product_check
                                                            on GRAPH in vertex ORDER
                                                            (e.g. 2,4,1,3), a = 0,
                                                            q-order 6

On exit it writes META (marshal): the monotonic time at which
``import trofey.cli`` had finished, and with TRACE=1 the recorded spans.
The exit code and standard output are the query's own.
"""

import marshal
import sys
import time

import trofey.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def product_check(path: str, order: str) -> int:
    """The one library query: the tracked operator product, criterion 09's core."""
    import json

    from trofey.fock import labeled_series_product_check
    from trofey.graphs import graph_from_json_dict

    with open(path, encoding="utf-8") as handle:
        graph, _, _ = graph_from_json_dict(json.load(handle))
    vertex_order = tuple(int(v) for v in order.split(","))
    print(labeled_series_product_check(graph, vertex_order, (0,) * graph.num_edges, 6))
    return 0


def main() -> int:
    meta_path, trace, kind, *args = sys.argv[1:]
    if kind == "cli":
        query = lambda: trofey.cli.main(args)  # noqa: E731
    elif kind == "product":
        query = lambda: product_check(*args)  # noqa: E731
    else:
        raise SystemExit(f"unknown query kind {kind!r}")
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return tracer.run_root(query) if tracer else query()
    finally:
        sys.stdout.flush()
        with open(meta_path, "wb") as handle:
            marshal.dump({"imported": IMPORTED, "trace": tracer.dump() if tracer else None}, handle)


if __name__ == "__main__":
    sys.exit(main())
