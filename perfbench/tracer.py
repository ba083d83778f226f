"""In-memory call tracer that wraps blobtensor functions from the outside.

`Tracer.install(targets)` replaces each target with a timing wrapper without
editing the package.  A module-level function is replaced in every
blobtensor module that binds it (a `from .linalg import invariant_closure`
makes a second binding), and each binding gets its own label
`<home>.<name>@<site>`.  A method is replaced on its class under every
attribute name that refers to it (`__radd__ = __add__`).  A target that does
not exist at the measured commit is listed in `absent` and skipped.

Two recording modes:
  span -- one record (id, label, start, end, parent, self_s, request) per
          call, kept in memory and written by `dump`;
  agg  -- per-label totals (calls, outermost inclusive seconds, self
          seconds) for hot functions such as scalar arithmetic.
Self time is a call's duration minus the time covered by wrapped callees,
whatever their mode.  Optional `pre(tracer, args)` and
`post(tracer, args, result)` hooks bump named counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "blobtensor"


class Tracer:
    def __init__(self):
        self.spans = []
        self.aggs = {}        # label -> [calls, outer_s, self_s, depth]
        self.counters = {}
        self.installed = []
        self.absent = []
        self.request = 0
        self.harvest = None   # {key: {operand text: None}} when harvesting
        self._next_id = 1
        # frame = [child_s, enclosing span id]; the root frame has id 0
        self._stack = [[0.0, 0]]

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, label, fn, pre, post):
        tracer, stack, spans = self, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                spans.append((sid, label, t0, t1, parent, d - frame[0],
                              tracer.request))
            if post is not None:
                post(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _agg_wrapper(self, label, fn, pre, post):
        tracer, stack = self, self._stack
        stats = self.aggs.setdefault(label, [0, 0.0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            stats[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stack[-1][0] += d
                stats[0] += 1
                stats[2] += d - frame[0]
                stats[3] -= 1
                if not stats[3]:
                    stats[1] += d
            if post is not None:
                post(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap(self, label, fn, mode, pre, post):
        make = self._span_wrapper if mode == "span" else self._agg_wrapper
        self.installed.append(label)
        return make(label, fn, pre, post)

    # -- installation -------------------------------------------------------

    def install(self, targets):
        """targets: iterable of (module, qualname, mode, pre, post)."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and m is not None]
        for module, qualname, mode, pre, post in targets:
            key = f"{module}.{qualname}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.append(key)
                continue
            if "." in qualname:
                ok = self._install_method(home, module, qualname, mode,
                                          pre, post)
            else:
                ok = self._install_function(home, module, qualname, mode,
                                            pre, post, modules)
            if not ok:
                self.absent.append(key)

    def _install_method(self, home, module, qualname, mode, pre, post):
        cls_name, attr = qualname.split(".")
        cls = getattr(home, cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            return False
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrapper = self._wrap(f"{module}.{qualname}@{module}", fn, mode,
                             pre, post)
        if static:
            wrapper = staticmethod(wrapper)
        for name, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, name, wrapper)
        return True

    def _install_function(self, home, module, name, mode, pre, post,
                          modules):
        fn = getattr(home, name, None)
        if not callable(fn):
            return False
        for site in modules:
            site_name = site.__name__[len(PACKAGE) + 1:]
            for attr, value in list(vars(site).items()):
                if value is fn:
                    setattr(site, attr, self._wrap(
                        f"{module}.{name}@{site_name}", fn, mode, pre, post))
        return True

    # -- output -------------------------------------------------------------

    def to_json(self):
        return {
            "schema": 1,
            "span_fields": ["id", "name", "start", "end", "parent",
                            "self_s", "request"],
            "spans": [list(s) for s in self.spans],
            "aggregates": {label: {"calls": s[0], "outer_s": s[1],
                                   "self_s": s[2]}
                           for label, s in sorted(self.aggs.items())},
            "counters": dict(sorted(self.counters.items())),
            "installed": sorted(set(self.installed)),
            "absent": sorted(self.absent),
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
