"""Per-layer tracing of the cryptodiv CLI from outside the package.

`Tracer.installed()` wraps every public function, and every public method of
a public class, defined in the pipeline modules below. Each wrapper records
one span per call: its duration, its self time (duration minus the time of
the wrapped calls it made on the same thread) and, for a few functions, a
work count. A wrapper replaces the original wherever a `cryptodiv` module
holds it, so names bound by `from .models import fit_forest` are traced too.

Run as a script, it is the child process of a traced benchmark run:

    python tracer.py SUMMARY_JSON -- <cryptodiv CLI arguments>

It runs the CLI in-process under the tracer and writes the per-function
summary to SUMMARY_JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("data", "index", "indicators", "experiments", "fra", "models", "importance", "reports")


def _manifest_bytes(args, kwargs, result) -> int:
    manifest = Path(args[0] if args else kwargs["manifest_path"])
    files = json.loads(manifest.read_text())["files"]
    return manifest.stat().st_size + sum((manifest.parent / f).stat().st_size for f in files)


# Work counts: function -> (counter name, count(args, kwargs, result)).
COUNTERS = {
    "data.load_corpus": ("bytes", _manifest_bytes),
    "index.load_mcap_csv": ("rows", lambda a, k, r: sum(len(s.caps) for s in r)),
    "models.TreeEnsemble.predict": ("rows", lambda a, k, r: len(r)),
    "reports.atomic_write_text": ("bytes",
                                  lambda a, k, r: len((a[1] if len(a) > 1 else k["text"]).encode())),
}


class Tracer:
    def __init__(self):
        # (name, duration ns, self ns, top-level); integer ns keep self time exact
        self.records: list[tuple[str, int, int, bool]] = []
        self.counts: dict[str, float] = {}
        self.wrapped: dict[str, object] = {}    # traced name -> original callable
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        local, records = self._local, self.records

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0)     # ns spent in traced callees
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += duration
                records.append((name, duration, duration - inner, not stack))
            if counter is not None:
                amount = counter[1](args, kwargs, result)
                with self._lock:
                    key = f"{name}.{counter[0]}"
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, traced name, original) for every function to wrap."""
        for layer in LAYERS:
            module = importlib.import_module(f"cryptodiv.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, f"{layer}.{attr}", obj
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield obj, meth, f"{layer}.{attr}.{meth}", fn

    @contextmanager
    def installed(self):
        """Wrap the pipeline's public functions; restore the originals on exit."""
        importlib.import_module("cryptodiv.cli")
        targets = list(self._targets())
        wrappers = {id(fn): self._wrap(name, fn) for _, _, name, fn in targets}
        self.wrapped = {name: fn for _, _, name, fn in targets}
        patched = []    # (owner, attribute, original)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "cryptodiv"]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    patched.append((module, attr, obj))
        patched += [(owner, attr, fn) for owner, attr, _, fn in targets if inspect.isclass(owner)]
        for owner, attr, obj in patched:
            setattr(owner, attr, wrappers[id(obj)])
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(patched):
                setattr(owner, attr, obj)

    def summary(self) -> dict:
        """Per traced name: calls, busy_s (inclusive), self_s, max_s, plus work counts."""
        functions = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0}
                     for name in self.wrapped}
        for name, (counter, _) in COUNTERS.items():
            functions[name][counter] = self.counts.get(f"{name}.{counter}", 0)
        top_level_ns = 0
        for name, duration, self_ns, top in self.records:
            stats = functions[name]
            stats["calls"] += 1
            stats["busy_s"] += duration * 1e-9
            stats["self_s"] += self_ns * 1e-9
            stats["max_s"] = max(stats["max_s"], duration * 1e-9)
            if top:
                top_level_ns += duration
        return {"functions": functions, "top_level_s": top_level_ns * 1e-9}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SUMMARY_JSON -- <cryptodiv arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    with tracer.installed():
        from cryptodiv.cli import main as cli_main
        code = cli_main(argv[2:])
    Path(argv[0]).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
