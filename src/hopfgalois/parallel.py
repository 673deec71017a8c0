"""A name only: no command maps in parallel.  perfbench/tracing.py still
counts calls to ``parallel_map``, and the module goes with it (ROADMAP
item 1)."""


def parallel_map(fn, items):
    return [fn(x) for x in items]
