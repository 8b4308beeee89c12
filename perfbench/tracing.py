"""Per-layer tracing for the benchmark: spans around rtune's public functions.

Each layer is one rtune module. While a ``Tracer`` is installed, every public
function and public method defined in a layer module is replaced by a wrapper
that records one span per call: id, parent id, name, start, end and whether an
exception escaped. rtune modules import names from each other directly (``from
.replay import build_replay_set`` in ``rtune.tuner``, for instance), so the
wrapper is written into every rtune module that binds the function, not only
the module that defines it. A few counters that a span cannot express (rows,
samples, bytes) are taken from arguments and results at the same boundaries.

The program's code is not modified and its results do not change: wrappers
only read arguments and results. ``uninstall`` puts every original back.
"""

import importlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("replay", "wavelet", "forecaster", "tuner", "data", "metrics",
          "benchmark", "cli")

# Private functions that mark a layer boundary the public ones do not: one
# (config, seed) job of the CLI, and its report/checkpoint writes.
EXTRA_FUNCTIONS = {"cli": ("_execute_run", "_prepare_csv_setup",
                           "_write_run_outputs", "_collect_reports")}

# Modules whose file I/O is timed; ``open`` is shadowed in their globals.
IO_LAYERS = ("cli", "forecaster")


def _layer_targets(module):
    """(owner, attribute name, original function, span name) to wrap."""
    layer = module.__name__.rsplit(".", 1)[-1]
    extra = EXTRA_FUNCTIONS.get(layer, ())
    targets = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and (not name.startswith("_") or name in extra):
            targets.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj) and not name.startswith("_"):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    targets.append((obj, attr, member, f"{layer}.{name}.{attr}"))
    return targets


class _TracedFile:
    """File object proxy that reports open-to-close time and size on close."""

    def __init__(self, fh, path, writing, on_close):
        self._fh = fh
        self._path = path
        self._writing = writing
        self._on_close = on_close
        self._start = time.perf_counter()
        self._done = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def close(self):
        if self._done:
            return
        self._done = True
        self._fh.close()
        self._on_close(self._writing, os.path.getsize(self._path),
                       time.perf_counter() - self._start)


class _RunFrame:
    """Bookkeeping for one active ``r_tune`` call."""

    def __init__(self, frozen, cfg):
        self.frozen = frozen
        self.cfg = cfg
        self.step_rows = 0
        self.frozen_rows = 0
        self.last_objective_s = None


class Tracer:
    """Installs span wrappers on every rtune layer and aggregates one pass.

    Spans and counters accumulate from ``install`` to ``uninstall``;
    ``pass_metrics`` turns them into the per-layer numbers of that pass.
    """

    def __init__(self):
        modules = [importlib.import_module(f"rtune.{layer}") for layer in LAYERS]
        self.targets = [t for m in modules for t in _layer_targets(m)]
        self._patched = []
        self.reset()

    # -- installation -------------------------------------------------------

    def _binding_modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "rtune" or name.startswith("rtune."))]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for owner, attr, original, span_name in self.targets:
            wrapper = self._wrap(original, span_name)
            wrappers[id(original)] = wrapper
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        originals = {id(o) for _, _, o, _ in self.targets}
        for module in self._binding_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for layer in IO_LAYERS:
            module = sys.modules[f"rtune.{layer}"]
            module.open = self._open_for(layer)
            self._patched.append((module, "open", None))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched = []

    def unpatched_bindings(self):
        """(module, attribute) pairs that still bind an original function."""
        originals = {id(o) for _, _, o, _ in self.targets}
        found = []
        for module in self._binding_modules():
            for attr, value in vars(module).items():
                if id(value) in originals:
                    found.append((module.__name__, attr))
        for owner, attr, original, _ in self.targets:
            if inspect.isclass(owner) and vars(owner)[attr] is original:
                found.append((owner.__qualname__, attr))
        return found

    # -- recording ----------------------------------------------------------

    def reset(self):
        self.spans = []          # (id, parent, name, start, end, raised)
        self._stack = []         # ids of open spans
        self._names = []         # names of open spans, parallel to _stack
        self._runs = []          # _RunFrame per open r_tune call
        self._jobs = []          # seed per open cli._execute_run call
        self.counts = Counter()
        self.step_s = []
        self.io_s = Counter()
        self.sweep_pairs = set()
        self.prepared_seeds = set()

    def _wrap(self, original, span_name):
        tracer = self
        before = getattr(self, "_before_" + span_name.replace(".", "_"), None)
        after = getattr(self, "_after_" + span_name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            parent_name = tracer._names[-1] if tracer._names else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(sid)
            tracer._names.append(span_name)
            if before is not None:
                before(args, kwargs)
            raised = True
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._names.pop()
                tracer.spans[sid] = (sid, parent, span_name, start, end, raised)
                if after is not None:
                    after(args, kwargs, None if raised else result,
                          end - start, parent_name)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        traced.__qualname__ = original.__qualname__
        traced.__doc__ = original.__doc__
        return traced

    def _open_for(self, layer):
        def traced_open(path, mode="r", *args, **kwargs):
            writing = any(c in mode for c in "wax+")

            def on_close(wrote, size, seconds):
                kind = "write" if wrote else "read"
                self.counts[f"{layer}.files_{kind}"] += 1
                self.counts[f"{layer}.bytes_{kind}"] += size
                self.io_s[f"{layer}.{kind}"] += seconds

            return _TracedFile(open(path, mode, *args, **kwargs), path,
                               writing, on_close)
        return traced_open

    # Hooks: ``_before_<span name>`` / ``_after_<span name>`` with dots as
    # underscores. They count what spans cannot: rows, samples, seeds.

    def _after_replay_build_replay_set(self, args, kwargs, result, dur, parent):
        if result is not None:
            self.counts["replay.samples"] += len(result)

    def _after_forecaster_Forecaster_forward(self, args, kwargs, result, dur,
                                             parent):
        if parent is not None and parent.startswith("replay."):
            self.counts["replay.single_row_forwards"] += 1

    def _after_forecaster_Forecaster_forward_batch(self, args, kwargs, result,
                                                   dur, parent):
        rows = len(args[1]) if len(args) > 1 else len(kwargs["inputs"])
        self.counts["forecaster.forward_batch_rows"] += rows
        if (self._runs and args[0] is self._runs[-1].frozen
                and parent in ("tuner.batch_objective",
                               "forecaster.grad_total")):
            self._runs[-1].frozen_rows += rows

    def _before_tuner_r_tune(self, args, kwargs):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        self._runs.append(_RunFrame(args[0], cfg))

    def _after_tuner_r_tune(self, args, kwargs, result, dur, parent):
        run = self._runs.pop()
        if run.cfg.distill_weight != 0.0 and run.cfg.epochs > 0:
            self.counts["tuner.distill_train_rows"] += run.step_rows // run.cfg.epochs
            self.counts["tuner.distill_frozen_rows"] += run.frozen_rows

    def _after_tuner_batch_objective(self, args, kwargs, result, dur, parent):
        if parent == "tuner.r_tune" and self._runs:
            self.counts["tuner.steps"] += 1
            self._runs[-1].step_rows += len(args[2])
            self._runs[-1].last_objective_s = dur

    def _after_forecaster_grad_total(self, args, kwargs, result, dur, parent):
        if parent == "tuner.r_tune" and self._runs:
            run = self._runs[-1]
            if run.last_objective_s is not None:
                self.step_s.append(run.last_objective_s + dur)
                run.last_objective_s = None

    def _after_data_read_series_csv(self, args, kwargs, result, dur, parent):
        if result:
            self.counts["data.csv_rows"] += len(result[0])
        if self._jobs and "cli.cmd_sweep" in self._names:
            self.counts["cli.sweep_csv_parses"] += 1
            self.sweep_pairs.add((os.fspath(args[0]), self._jobs[-1]))

    def _after_data_make_windows(self, args, kwargs, result, dur, parent):
        if result is not None:
            self.counts["data.windows"] += len(result)

    def _after_metrics_evaluate_model(self, args, kwargs, result, dur, parent):
        if result is not None:
            self.counts["metrics.eval_rows"] += (result[0].n_samples
                                                 + result[1].n_samples)

    def _after_benchmark_prepare_benchmark(self, args, kwargs, result, dur,
                                           parent):
        self.prepared_seeds.add(args[0] if args else kwargs["seed"])

    def _before_cli__execute_run(self, args, kwargs):
        self._jobs.append(args[1] if len(args) > 1 else kwargs["seed"])

    def _after_cli__execute_run(self, args, kwargs, result, dur, parent):
        self._jobs.pop()

    # -- aggregation --------------------------------------------------------

    def pass_metrics(self, pass_s):
        """Per-layer metrics of the spans recorded since the last reset."""
        calls = Counter()
        incl = defaultdict(float)
        child_s = defaultdict(float)
        errors = Counter()
        root_s = 0.0
        for sid, parent, name, start, end, raised in self.spans:
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            if parent >= 0:
                child_s[parent] += dur
            else:
                root_s += dur
            if raised:
                errors[name.split(".", 1)[0]] += 1
        self_s = defaultdict(float)
        for sid, parent, name, start, end, raised in self.spans:
            self_s[name.split(".", 1)[0]] += (end - start) - child_s[sid]

        c = self.counts
        m = {}
        m["replay.build_s"] = self_s["replay"]
        m["replay.samples"] = c["replay.samples"]
        m["replay.single_row_forwards"] = c["replay.single_row_forwards"]
        m["wavelet.decompose_calls"] = calls["wavelet.rwt_decompose"]
        m["wavelet.decompose_s"] = incl["wavelet.rwt_decompose"]
        m["wavelet.reconstruct_calls"] = calls["wavelet.rwt_reconstruct"]
        m["wavelet.reconstruct_s"] = incl["wavelet.rwt_reconstruct"]
        m["forecaster.forward_batch_calls"] = calls["forecaster.Forecaster.forward_batch"]
        m["forecaster.forward_batch_rows"] = c["forecaster.forward_batch_rows"]
        m["forecaster.grad_calls"] = calls["forecaster.grad_total"]
        m["forecaster.grad_s"] = incl["forecaster.grad_total"]
        m["forecaster.checkpoint_bytes"] = c["forecaster.bytes_write"]
        m["forecaster.checkpoint_write_s"] = self.io_s["forecaster.write"]
        m["forecaster.checkpoint_read_s"] = self.io_s["forecaster.read"]
        m["tuner.steps"] = c["tuner.steps"]
        m["tuner.step_s_p50"] = (statistics.median(self.step_s)
                                 if self.step_s else 0.0)
        m["tuner.frozen_rows_per_train_row"] = _ratio(
            c["tuner.distill_frozen_rows"], c["tuner.distill_train_rows"])
        m["data.read_csv_calls"] = calls["data.read_series_csv"]
        m["data.read_csv_s"] = incl["data.read_series_csv"]
        m["data.csv_rows"] = c["data.csv_rows"]
        m["data.make_windows_s"] = incl["data.make_windows"]
        m["data.windows"] = c["data.windows"]
        m["data.covered_values_s"] = incl["data.covered_values"]
        m["metrics.evaluate_calls"] = calls["metrics.evaluate_model"]
        m["metrics.evaluate_s"] = incl["metrics.evaluate_model"]
        m["metrics.eval_rows"] = c["metrics.eval_rows"]
        m["benchmark.prepare_calls"] = calls["benchmark.prepare_benchmark"]
        m["benchmark.prepare_s"] = incl["benchmark.prepare_benchmark"]
        m["benchmark.prepare_per_seed"] = _ratio(
            calls["benchmark.prepare_benchmark"], len(self.prepared_seeds))
        m["cli.jobs"] = calls["cli._execute_run"]
        m["cli.files_written"] = c["cli.files_write"]
        m["cli.bytes_written"] = c["cli.bytes_write"]
        m["cli.write_s"] = self.io_s["cli.write"]
        m["cli.read_s"] = self.io_s["cli.read"]
        m["cli.csv_parses_per_file_seed"] = _ratio(
            c["cli.sweep_csv_parses"], len(self.sweep_pairs))
        for layer in LAYERS:
            if layer != "replay":
                m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.errors"] = errors[layer]
        m["trace.spans"] = len(self.spans)
        m["trace.outside_s"] = max(0.0, pass_s - root_s)
        return m


def _ratio(num, den):
    return num / den if den else 0.0


def span_lines(spans):
    """Spans as compact JSON-ready rows, times relative to the first start."""
    if not spans:
        return []
    t0 = min(s[3] for s in spans)
    return [[sid, parent, name, round(start - t0, 9), round(end - t0, 9),
             int(raised)]
            for sid, parent, name, start, end, raised in spans]
