"""In-memory span registry and the hooks that feed it.

Spans are recorded from outside the program: the benchmark opens spans
around its own calls into fairrank, and for calls fairrank makes
internally it replaces the attribute the caller resolves at call time
(``fairrank.trainer.adam_step``, ``fairrank.adversary.loglik_and_grads``,
``InteractionDataset.in_train`` ...) with a timing wrapper.  A hook whose
target no longer exists is recorded as missing, so the metrics it feeds
are reported as missing rather than as zero.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent, run id) and named counters.

    ``enabled`` False turns every span into a no-op, so the same pipeline
    code serves the untraced and the traced run.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.run_id = None
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = defaultdict(float)
        self._stack = []

    def begin(self, name):
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx):
        if idx < 0:
            return
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name, amount=1):
        if self.enabled:
            self.counts[name] += amount

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )

    def summarize(self, run_id):
        """Inclusive and self seconds per span name, for one run id."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid != run_id:
                continue
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += dur
        for idx, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                self_s[name] += (end - start) - child_time[idx]
        return total, self_s, calls


class Hooks:
    """Installs timing wrappers on module or class attributes; restores
    the originals on ``restore``."""

    def __init__(self):
        self.missing = []
        self._saved = []

    def install(self, owner, attr, label, make_wrapper):
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(label)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def timed(tracer, name, fn, before=None):
    """Wrapper opening span ``name`` (or ``name(args, kwargs)`` when name
    is callable) around ``fn``; ``before`` sees the arguments first."""

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        label = name(args, kwargs) if callable(name) else name
        idx = tracer.begin(label)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    wrapper.__wrapped__ = fn
    return wrapper
