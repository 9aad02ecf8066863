"""Span tracing of matkit's layers from outside the package.

``Tracer.install`` wraps every public function of the eight layer modules,
the public methods of ``bench.Prng`` and ``NumArray.__init__`` (recorded as
``core.construct``), and rebinds each wrapped name in its home module and in
every matkit module that imported it by name. ``detach`` puts the
originals back; ``attach`` binds the wrappers again. A span is (name, start, end, parent span, pass id), kept in
flat in-memory arrays and written out once at the end.

At the same boundaries some probes record counts computed from array sizes
(selector entries, bytes copied, flops, ...) and the accuracy of the solvers'
results; these repeat exactly for a given seed and program. A probe runs
after its span has closed, so its small cost lands in the caller's self time
and is part of ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("core", "indexing", "ops", "linalg", "idioms", "pnm", "bench", "cli")


# -- probes: computed counts at the wrapped boundaries ------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class _Probes:
    """Counts derived from the arguments and results of a few kernel calls."""

    def __init__(self, mk):
        self.ALL = mk.indexing.ALL
        self.Span = mk.indexing.Span
        self.NumArray = mk.core.NumArray
        self.BoolMask = mk.core.BoolMask

    def _entries(self, sel, extent):
        """Selector entries resolved one by one (ALL is resolved wholesale)."""
        if sel is self.ALL:
            return 0
        if isinstance(sel, self.Span):
            return len(sel.resolve(extent))
        if isinstance(sel, (list, tuple)):
            return len(sel)
        if isinstance(sel, self.NumArray):
            return sel.numel
        return 1

    def _selection(self, a, ix):
        """(selector entries, cells selected) of an index expression on a."""
        if ix.is_linear:
            n = self._entries(ix.linear_sel, a.numel)
            return n, (a.numel if ix.linear_sel is self.ALL else n)
        entries, cells = 0, 1
        for sel, extent in zip(ix.selectors, a.dims):
            n = self._entries(sel, extent)
            entries += n
            cells *= extent if sel is self.ALL else n
        return entries, cells

    def _bytes(self, r):
        if isinstance(r, self.NumArray):
            return 8 * r.numel
        if isinstance(r, self.BoolMask):
            return r.numel
        if isinstance(r, tuple):
            return sum(self._bytes(x) for x in r)
        return 0

    def extract(self, tr, args, kwargs, result):
        entries, _ = self._selection(_arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "ix"))
        tr.count("indexing.selector_elems", entries)

    def assign_indexed(self, tr, args, kwargs, result):
        a = _arg(args, kwargs, 0, "a")
        entries, cells = self._selection(a, _arg(args, kwargs, 1, "ix"))
        tr.count("indexing.selector_elems", entries)
        tr.count("indexing.assign_indexed.cells_copied", a.numel)
        tr.count("indexing.assign_indexed.cells_written", cells)

    def ops_result(self, tr, args, kwargs, result):
        tr.count("ops.bytes_out", self._bytes(result))

    def matmul(self, tr, args, kwargs, result):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        tr.count("linalg.matmul.flops", 2 * a.rows * a.cols * b.cols)

    def eig_sym(self, tr, args, kwargs, result):
        s = _arg(args, kwargs, 0, "s").view()
        v, lam = result.vectors.view(), result.values.buf
        norm = max(float(np.abs(s).sum(axis=1).max()), np.finfo(float).tiny)
        tr.peak("linalg.eig_sym.residual", float(np.abs(s @ v - v * lam).max()) / norm)
        tr.peak("linalg.eig_sym.orth_err", float(np.abs(v.T @ v - np.eye(v.shape[1])).max()))

    def mldivide(self, tr, args, kwargs, result):
        a, b = _arg(args, kwargs, 0, "a").view(), _arg(args, kwargs, 1, "b").buf
        x = result.buf
        scale = float(np.abs(a).sum(axis=1).max()) * max(float(np.abs(x).max()), np.finfo(float).tiny)
        tr.peak("linalg.mldivide.residual", float(np.abs(a @ x - b).max()) / scale)

    def decode_pnm(self, tr, args, kwargs, result):
        tr.count("pnm.decode_pnm.bytes", len(_arg(args, kwargs, 0, "data")))

    def table(self, ops_names):
        table = {
            "indexing.extract": self.extract,
            "indexing.assign_indexed": self.assign_indexed,
            "linalg.matmul": self.matmul,
            "linalg.eig_sym": self.eig_sym,
            "linalg.mldivide": self.mldivide,
            "pnm.decode_pnm": self.decode_pnm,
        }
        table.update({name: self.ops_result for name in ops_names})
        return table


# -- the tracer -------------------------------------------------------------------------

class Tracer:
    """Wraps matkit's layer boundaries and records nested spans per pass."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.pass_no = 0  # 0 is set-up (inputs and warm-up); timed passes count from 1
        self.counts = defaultdict(Counter)  # pass -> computed counts
        self.peaks = {}
        self._bindings = []  # (owner, attribute, original, wrapper)

    def count(self, key, n):
        self.counts[self.pass_no][key] += n

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def _wrap(self, name, fn, probe=None):
        nid = len(self.names)  # every wrapped name is distinct
        self.names.append(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.pass_of.append(tr.pass_no)
            tr.start.append(0)
            tr.end.append(0)
            tr._stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if probe is not None:
                probe(tr, args, kwargs, result)
            return result

        return traced

    def install(self, mk):
        """Wrap the layer boundaries of the imported matkit package and attach."""
        ops_names = []
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"matkit.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if layer == "ops":
                    ops_names.append(name)
                wrappers[obj] = name
        probes = _Probes(mk).table(ops_names)
        wrappers = {fn: self._wrap(name, fn, probes.get(name)) for fn, name in wrappers.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "matkit" and not modname.startswith("matkit."):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, attr, obj, wrappers[obj]))
        methods = [(mk.core.NumArray, "__init__", "core.construct")]
        methods += [
            (mk.bench.Prng, attr, f"bench.Prng.{attr}")
            for attr, obj in vars(mk.bench.Prng).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
        ]
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            self._bindings.append((cls, attr, original, self._wrap(name, original)))
        self.attach()

    def attach(self):
        """Bind every wrapper in place of the function it wraps."""
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def detach(self):
        """Put the original functions back; a detached pass runs untraced."""
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.pass_of, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def save(self, path):
        name_id, parent, pass_of, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 pass_id=pass_of, start_ns=start, end_ns=end)

    def per_layer(self, pass_walls):
        """Per-layer metrics from the spans of the timed passes.

        pass_walls maps each timed pass id to its wall time in seconds. Times
        are medians over those passes; counts are per pass and must repeat
        exactly from pass to pass, which ``trace.counts_repeat`` reports.
        """
        name_id, parent, pass_of, start, end = self._arrays()
        dur = (end - start) / 1e9
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        k = len(self.names)
        passes = sorted(pass_walls)  # at least one; spans never come from a later pass
        rows = (passes[-1] + 1) * k
        key = pass_of.astype(np.int64) * k + name_id
        self_s = np.bincount(key, weights=own, minlength=rows).reshape(-1, k)
        total_s = np.bincount(key, weights=dur, minlength=rows).reshape(-1, k)
        calls = np.bincount(key, minlength=rows).reshape(-1, k)

        def ids(pred):
            return [i for i, n in enumerate(self.names) if pred(n)]

        med = statistics.median

        def self_time(pred, p=None):
            cols = ids(pred)
            if p is not None:
                return float(self_s[p, cols].sum())
            return med([float(self_s[q, cols].sum()) for q in passes])

        def total(name, p):
            cols = ids(lambda n: n == name)
            return float(total_s[p, cols].sum())

        def per_pass_counts(p):
            row = dict(self.counts.get(p, {}))
            for i, n in enumerate(self.names):
                row[n + ".calls"] = int(calls[p, i])
            return row

        rows_by_pass = [per_pass_counts(p) for p in passes]
        first = rows_by_pass[0]
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for fn in ("indexing.extract", "indexing.assign_indexed", "core.construct",
                   "ops.ew_binary", "linalg.eig_sym", "linalg.matmul"):
            put(f"{fn}.calls", first.get(f"{fn}.calls", 0), "count")
        for fn in ("indexing.extract", "indexing.assign_indexed", "core.construct",
                   "core.permute", "ops.ew_binary", "ops.compare", "ops.reduce_along_dim",
                   "ops.merge", "ops.extremum", "linalg.eig_sym", "linalg.matmul",
                   "linalg.mldivide", "pnm.decode_pnm", "pnm.encode_pnm",
                   "idioms.zigzag_scan", "idioms.distance_matrix", "idioms.blockproc",
                   "idioms.pca", "cli.main"):
            put(f"{fn}.self_s", self_time(lambda n, fn=fn: n == fn), "s")
        for layer in LAYERS:
            put(f"{layer}.self_s", self_time(lambda n, layer=layer: n.split(".")[0] == layer), "s")
        put("indexing.selector_elems", first.get("indexing.selector_elems", 0), "count")
        copied = first.get("indexing.assign_indexed.cells_copied", 0)
        put("indexing.assign_indexed.bytes_copied", 8 * copied, "B")
        written = first.get("indexing.assign_indexed.cells_written", 0)
        put("indexing.assign_indexed.useful_ratio", written / copied if copied else 0.0, "ratio")
        put("ops.bytes_out", first.get("ops.bytes_out", 0), "B")
        put("linalg.matmul.flops", first.get("linalg.matmul.flops", 0), "flop")
        put("pnm.decode_pnm.bytes", first.get("pnm.decode_pnm.bytes", 0), "B")
        for key in ("linalg.eig_sym.residual", "linalg.eig_sym.orth_err", "linalg.mldivide.residual"):
            put(key, self.peaks.get(key, 0.0), "ratio")
        put("bench.Prng.self_s", self_time(lambda n: n.startswith("bench.Prng."), 0), "s")
        put("bench.verify_s", med([total("bench.run_scenario", p) - total("bench.time_it", p)
                                   for p in passes]), "s")
        put("bench.timed_s", med([total("bench.time_it", p) for p in passes]), "s")
        put("trace.pass_s_p50", med([pass_walls[p] for p in passes]), "s")
        put("trace.attributed_share",
            med([float(self_s[p].sum()) / pass_walls[p] for p in passes]), "ratio")
        put("trace.spans_per_pass", int(calls[passes[0]].sum()), "count")
        repeat = all(r == first for r in rows_by_pass)
        put("trace.counts_repeat", 1 if repeat else 0, "bool")
        return m, first
