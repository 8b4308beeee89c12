"""The benchmark's three workloads, each a closed loop with one caller.

A workload builds its inputs from the workload seed (``build``), then runs
passes of identical units (``units``). Every unit's output is checked
(``check``) against the finiteness and rerun-equality rules of the workload;
the first pass's outputs are the reference for every later pass, so a traced
pass that returned different bits than the untraced first pass fails its
check.

- ``tune_paper``: paper-default ``r_tune`` on frozen models pretrained in
  set-up. Replay synthesis and the wavelet transform dominate it.
- ``desk_arms``: the five-arm desk benchmark over five seeds, as acceptance
  criterion 6 runs it. The training step dominates; replay is tiny.
- ``sweep_csv``: the user's path with their own CSV data through
  ``rtune.cli.main``: ``tune``, ``sweep`` and ``report``. CSV ingestion and
  file I/O dominate.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

import rtune
import rtune.cli

ARMS = ("frozen", "ft", "lwf", "replay-only", "r-tuning")
ADAPTED_ARMS = ARMS[1:]
QUALITY_KEYS = ("old_mae", "old_mse", "new_mae", "new_mse")


@dataclass
class Outcome:
    """Checked output of one unit: pass/fail, a digest of every output bit,
    its quality numbers and a JSON-ready detail record."""

    ok: bool
    digest: str
    quality: tuple
    detail: dict
    why: str = ""


def _quality(old, new):
    return (old.mae, old.mse, new.mae, new.mse)


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 json.dumps(part, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


class Workload:
    """Common rerun-equality bookkeeping: the first pass sets the reference."""

    name = ""
    unit = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.reference = {}

    def before_pass(self):
        """Untimed preparation before each pass."""

    def _rerun_equal(self, key, digest):
        expected = self.reference.setdefault(key, digest)
        return expected == digest

    def check_pass(self, outcomes):
        """Pass-level check over all unit outcomes; '' when it holds."""
        return ""

    def quality(self, outcomes):
        """The four quality numbers of a pass, averaged over its units."""
        return dict(zip(QUALITY_KEYS,
                        np.mean([o.quality for o in outcomes], axis=0).tolist()))


class TunePaper(Workload):
    name = "tune_paper"
    unit = "one paper-default r_tune call plus evaluation of its model"
    models = 3

    def build(self):
        self.setups = [rtune.prepare_benchmark(self.models * self.seed + i)
                       for i in range(self.models)]

    def units(self):
        return [(f"seed-{s.seed}", lambda s=s: self._tune(s))
                for s in self.setups]

    def _tune(self, setup):
        model, report = rtune.r_tune(setup.frozen, setup.new_train,
                                     rtune.TuneConfig(seed=setup.seed))
        old, new = rtune.evaluate_model(model, [setup.old_test], setup.new_test)
        return model, report, old, new

    def check(self, key, result):
        model, report, old, new = result
        quality = _quality(old, new)
        digest = _digest(model.theta.tobytes(), report.to_dict(), quality)
        ok = bool(np.all(np.isfinite(model.theta))) and _finite(*quality)
        why = "" if ok else "non-finite parameters or metrics"
        if ok and not self._rerun_equal(key, digest):
            ok, why = False, "parameters or report differ from the first pass"
        detail = dict(zip(QUALITY_KEYS, quality),
                      selected_epoch=report.selected_epoch)
        return Outcome(ok, digest, quality, detail, why)


class DeskArms(Workload):
    name = "desk_arms"
    unit = "one seed: prepare_benchmark plus the five arms"
    seeds_per_pass = 5

    def build(self):
        self.data_seeds = [self.seeds_per_pass * self.seed + i
                           for i in range(self.seeds_per_pass)]

    def units(self):
        return [(f"seed-{s}", lambda s=s: self._arms(s)) for s in self.data_seeds]

    def _arms(self, data_seed):
        setup = rtune.prepare_benchmark(data_seed)
        cfg = rtune.desk_config(data_seed)
        return {arm: rtune.run_arm(setup, arm, cfg) for arm in ARMS}

    def check(self, key, result):
        table = {arm: _quality(rep.old_metrics, rep.new_metrics)
                 for arm, (_, rep) in result.items()}
        digest = _digest([(arm, rep.to_dict()) for arm, (_, rep) in result.items()],
                         *[m.theta.tobytes() for m, _ in result.values()
                           if m is not None])
        ok = all(_finite(*q) for q in table.values())
        why = "" if ok else "non-finite metrics"
        if ok and not self._rerun_equal(key, digest):
            ok, why = False, "arm reports differ from the first pass"
        quality = tuple(np.mean([table[a] for a in ADAPTED_ARMS], axis=0).tolist())
        detail = {arm: dict(zip(QUALITY_KEYS, q)) for arm, q in table.items()}
        return Outcome(ok, digest, quality, detail, why)

    def check_pass(self, outcomes):
        if self.data_seeds != [0, 1, 2, 3, 4]:
            return ""
        return criterion_6([o.detail for o in outcomes])


def criterion_6(tables):
    """Acceptance criterion 6 on five-seed means; '' when it holds."""
    def mean(arm, key):
        return float(np.mean([t[arm][key] for t in tables]))

    frozen_new, ft_new = mean("frozen", "new_mae"), mean("ft", "new_mae")
    rt_new = mean("r-tuning", "new_mae")
    if (frozen_new - ft_new) / frozen_new * 100.0 < 30.0:
        return "criterion 6: ft new-task gain below 30%"
    if not mean("ft", "old_mse") > mean("frozen", "old_mse"):
        return "criterion 6: ft did not degrade old-task MSE"
    if not (mean("r-tuning", "old_mae") < mean("ft", "old_mae")
            and mean("r-tuning", "old_mse") < mean("ft", "old_mse")):
        return "criterion 6: r-tuning does not beat ft on old-task retention"
    if not rt_new <= 1.10 * ft_new:
        return "criterion 6: r-tuning new-task MAE above 110% of ft"
    return ""


def write_series_csv(path, values, name):
    # plain floats: repr(np.float64) reads "np.float64(...)" under numpy 2,
    # which read_series_csv rejects
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", name])
        for i, v in enumerate(np.asarray(values).tolist()):
            writer.writerow([i, repr(v)])


class SweepCsv(Workload):
    name = "sweep_csv"
    unit = "one pass through rtune.cli.main: tune, sweep and report"
    ratios = "0,1,2,5,10"

    def build(self):
        inputs = self.workdir / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        old, new, _ = rtune.gen_benchmark_tasks(self.seed)
        write_series_csv(inputs / "old.csv", old.values, "old")
        write_series_csv(inputs / "new.csv", new.values, "new")
        rtune.save_checkpoint(rtune.prepare_benchmark(self.seed).frozen,
                              inputs / "frozen.ckpt")
        self.runs = self.workdir / "runs"
        self.sweep_out = self.workdir / "sweep.csv"
        self.report_out = self.workdir / "report.json"
        # paths relative to the work directory, where the CLI runs, so that
        # the bytes it writes do not depend on where the checkout lives
        (inputs / "config.json").write_text(json.dumps({
            "checkpoint": "inputs/frozen.ckpt",
            "old_data": ["inputs/old.csv"],
            "new_data": "inputs/new.csv",
            "seeds": [2 * self.seed, 2 * self.seed + 1],
            "output_dir": "runs",
        }))

    def before_pass(self):
        shutil.rmtree(self.runs, ignore_errors=True)
        for path in (self.sweep_out, self.report_out):
            path.unlink(missing_ok=True)

    def units(self):
        return [("pass", self._pass)]

    def _pass(self):
        config = "inputs/config.json"
        commands = (
            ["tune", "--config", config, "--method", "frozen"],
            ["sweep", "--config", config, "--ratios", self.ratios,
             "--output", self.sweep_out.name],
            ["report", self.runs.name, "--output", self.report_out.name],
        )
        log = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes = [rtune.cli.main(argv) for argv in commands]
        finally:
            os.chdir(cwd)
        return codes, log.getvalue()

    def check(self, key, result):
        codes, log = result
        if codes != [0, 0, 0]:
            return Outcome(False, "", (math.nan,) * 4, {"exit_codes": codes},
                           f"exit codes {codes}: {log.strip()[-500:]}")
        with open(self.sweep_out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        values = [[float(r[k]) for k in QUALITY_KEYS] for r in rows]
        files = sorted(p for p in self.runs.rglob("*")
                       if p.name in ("report.json", "model.ckpt"))
        files.append(self.report_out)
        digests = {str(p.relative_to(self.workdir)):
                   hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        digest = _digest(digests, values)
        expected_rows = len(self.ratios.split(",")) * 2
        ok, why = True, ""
        if len(values) != expected_rows or not all(_finite(*v) for v in values):
            ok, why = False, f"expected {expected_rows} finite sweep rows"
        elif not self._rerun_equal(key, digest):
            ok, why = False, "report/checkpoint bytes differ from the first pass"
        quality = tuple(np.mean(values, axis=0).tolist()) if values else (math.nan,) * 4
        detail = {"rows": [dict(zip(("ratio", "seed") + QUALITY_KEYS,
                                    [float(r["ratio"]), int(r["seed"])] + v))
                           for r, v in zip(rows, values)],
                  "files": len(digests)}
        return Outcome(ok, digest, quality, detail, why)


WORKLOADS = {w.name: w for w in (TunePaper, DeskArms, SweepCsv)}
