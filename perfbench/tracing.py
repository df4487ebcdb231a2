"""Span tracing around the public functions of the spinsc layers.

Modules import names directly (``from .rngtools import derive_rng``), so a
function is replaced at every module attribute that binds it, not only in
the module that defines it, and in module-level tables such as the CLI's
command dispatch.  Spans (name, start, end, parent, run id) are
kept in memory and written out by the caller when the run ends.
"""

import contextlib
import functools
import inspect
import statistics
import sys
import time

LAYERS = ("llgs", "mtj", "bitstream", "network", "training", "polar",
          "rngtools", "cli")

# Span name given to every `with cli.atomic_path(...)` block: all CLI
# output files are written inside one.
WRITE_SPAN = "cli.write"

MARK = "__perfbench_wrapped__"


def public_functions(module):
    """(span name, function) for each public function a module defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = []
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            found.append((f"{short}.{name}", fn))
    return found


def layer_functions():
    """Every public function of the traced layers, keyed by identity."""
    out = {}
    for layer in LAYERS:
        module = sys.modules.get(f"spinsc.{layer}")
        if module is not None:
            for name, fn in public_functions(module):
                out[id(fn)] = (name, fn)
    return out


def binding_sites():
    """Namespaces that can bind a layer function: each loaded spinsc
    module's globals and the dicts they hold, such as cli's command table."""
    sites = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "spinsc" or name.startswith("spinsc.")):
            continue
        sites.append((name, vars(module)))
        for attr, value in vars(module).items():
            if isinstance(value, dict) and attr != "__builtins__":
                sites.append((f"{name}.{attr}", value))
    return sites


class Patch:
    """Replaces functions at every binding site; `restore` puts every
    original back."""

    def __init__(self, make_wrapper, targets=None):
        targets = layer_functions() if targets is None else targets
        wrappers = {key: make_wrapper(name, fn)
                    for key, (name, fn) in targets.items()}
        for w in wrappers.values():
            setattr(w, MARK, True)
        self.saved = []
        for _, namespace in binding_sites():
            for key, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.saved.append((namespace, key, value))
                    namespace[key] = wrapper

    def restore(self):
        for namespace, key, value in reversed(self.saved):
            namespace[key] = value
        self.saved = []


def leftover_wrappers():
    """Binding sites that still hold a wrapper, as 'site.key'."""
    return [f"{site}.{key}" for site, namespace in binding_sites()
            for key, value in namespace.items() if getattr(value, MARK, False)]


class Tracer:
    """Records one span per wrapped call."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, run id]
        self.stack = []
        self.run_id = 0

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def make_wrapper(self, name, fn):
        if name == "cli.atomic_path":
            @functools.wraps(fn)
            @contextlib.contextmanager
            def write_span(*args, **kwargs):
                self._open(WRITE_SPAN)
                try:
                    with fn(*args, **kwargs) as tmp:
                        yield tmp
                finally:
                    self._close()
            return write_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def stats(self, run_id):
        """Per span name: calls, total_s, self_s, max_s and durations."""
        child = {}
        for i, (_, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            dur = end - start
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "max_s": 0.0, "durations": []})
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child.get(i, 0.0)
            s["max_s"] = max(s["max_s"], dur)
            s["durations"].append(dur)
        return out

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent,run_id\n")
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{rid}\n")


def percentile_us(durations, q):
    """q-th percentile in microseconds, or 0.0 unless at least ten samples
    lie beyond the 99th percentile (1000 calls)."""
    if len(durations) < 1000:
        return 0.0
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1e6 * cuts[q - 1]
