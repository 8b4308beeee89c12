"""Seeded two-task forgetting benchmark at desk scale.

Pretrains a fresh forecaster on the old task, then adapts it to a few-shot
slice of the new task under the selected method. Window geometry defaults to
48 -> 12 so a full five-seed comparison stays under a minute.
"""

from collections import Counter
from dataclasses import dataclass, field, replace

from .data import (SeriesWindows, WindowedDataset, _check, _child_seeds,
                   gen_benchmark_tasks, split_series)
from .forecaster import Forecaster, init_forecaster
from .metrics import old_new, score
from .tuner import (METHODS, TuneConfig, TuneReport, lockstep_key, r_tune,
                    r_tune_group)

__all__ = [
    "BenchmarkSetup",
    "desk_config",
    "prepare_benchmark",
    "run_arm",
    "run_arm_jobs",
    "scored_arms",
]

# `scored_arms` trains the arms of several seeds in one lockstep call while
# no stack grows past this many runs. The cap bounds the setups a caller
# holds at once, so that they do not grow with its seed count; a larger
# stack would buy little, as a desk r-tuning run trains in about the same
# time per run at K = 8, 16 and 32 (10.6, 10.3 and 10.8 ms).
STACK_CAP = 8


@dataclass
class BenchmarkSetup:
    """Everything one seed's arms share: the pretrained frozen model, the
    new-task training set, and the test sets, one per old-task set and one
    of the new task. Each set is held as its normalized series and window
    starts, the new task's two sets sharing one series, so a prepared seed
    holds O(series length) floats of them; the training windows are cut
    only while arms train, and the test windows only while they are
    scored."""

    seed: int
    frozen: Forecaster
    old_test_sets: tuple  # of SeriesWindows
    new_train_set: SeriesWindows
    new_test_set: SeriesWindows
    gen_params: dict = field(default_factory=dict)

    @property
    def new_train(self) -> WindowedDataset:
        """The new-task training windows, cut on each access."""
        return self.new_train_set.windows()

    @property
    def old_test(self) -> WindowedDataset:
        """The first old-task test set's windows, cut on each access; an
        IndexError when the setup has none."""
        return self.old_test_sets[0].windows()

    @property
    def new_test(self) -> WindowedDataset:
        """The new-task test windows, cut on each access."""
        return self.new_test_set.windows()


def desk_config(seed: int, replay_n: int = 30, **overrides) -> TuneConfig:
    """Standard-setting hyperparameters scaled to desk geometry.

    Distillation, wavelet, and regularization settings keep their full-scale
    defaults; the replay size lands at ~6% of the few-shot training windows
    (the method's low-replay sweet spot) and the step size is calibrated so
    ten epochs converge at this problem size.
    """
    base = TuneConfig(replay_n=replay_n, learning_rate=2e-2, seed=seed)
    return replace(base, **overrides) if overrides else base


def prepare_benchmark(seed: int, input_width: int = 48, horizon: int = 12,
                      stride: int = 1, hidden_width: int = 32,
                      train_fraction: float = 0.8,
                      few_shot_fraction: float = 0.10,
                      old_length: int = 6000, new_length: int = 12480,
                      pretrain_epochs: int = 30,
                      pretrain_lr: float = 1e-2) -> BenchmarkSetup:
    """Build one seed's benchmark: data, splits, and the pretrained frozen
    model. Every argument is checked before the pretraining starts, the
    seed before the data are generated."""
    _check("seed", seed, 0)
    seeds = _child_seeds(seed, 5)

    old_series, new_series, gen_params = gen_benchmark_tasks(
        seed, old_length=old_length, new_length=new_length)

    old_train_set, old_test_set = split_series(
        old_series, input_width, horizon, stride, train_fraction, seeds[0])
    new_train_set, new_test_set = split_series(
        new_series, input_width, horizon, stride, train_fraction, seeds[1],
        few_shot_fraction, seeds[2])
    init = init_forecaster(input_width, horizon, hidden_width, seed=seeds[3])
    pretrain_cfg = TuneConfig(epochs=pretrain_epochs, learning_rate=pretrain_lr,
                              seed=seeds[4])
    frozen, _ = r_tune(init, old_train_set.windows(), pretrain_cfg,
                       method="ft")

    return BenchmarkSetup(seed=seed, frozen=frozen,
                          old_test_sets=(old_test_set,),
                          new_train_set=new_train_set,
                          new_test_set=new_test_set, gen_params=gen_params)


def run_arm(setup: BenchmarkSetup, method: str, cfg: TuneConfig):
    """Run one adaptation method on a prepared benchmark and score it: the
    adapted model, or the frozen one for "frozen", on the setup's old- and
    new-task test sets. The one-arm case of :func:`run_arm_jobs`.

    Returns:
        (adapted model or None for "frozen", TuneReport with metrics)

    Raises:
        RuntimeError: training diverged, or a metric is not finite.
    """
    outcome, = run_arm_jobs([(setup, method, cfg)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_arm_jobs(jobs):
    """Train and score (setup, method, cfg) arms, which may come from several
    prepared benchmarks, the trained ones together through one
    :func:`rtune.tuner.r_tune_group` call. Each held training set that an
    arm trains on is cut once per call, so the arms on one set, such as a
    seed's sweep arms, read one shared training source, and its windows are
    dropped before scoring. Each arm scores on its setup's old-task test
    sets and its new-task test set. After every arm has trained, the held
    test sets are cut one at a time, each once, and each (model, set) pair
    is scored once: setups that share their old-task sets and frozen model,
    as a CSV-mode run's seeds do, forward the frozen model over each shared
    set once.

    Returns:
        One entry per job, in order: what :func:`run_arm` returns for it, or
        the ValueError or RuntimeError it raises. One arm's failure does not
        stop the others.
    """
    trains = [METHODS.get(method, {}) is not None for _, method, _ in jobs]
    training = [job for job, t in zip(jobs, trains) if t]
    held = {id(setup.new_train_set): setup.new_train_set
            for setup, _, _ in training}
    cut = {key: train_set.windows() for key, train_set in held.items()}
    trained = iter(r_tune_group([(setup.frozen, cut[id(setup.new_train_set)],
                                  cfg, method)
                                 for setup, method, cfg in training]))
    del cut  # before any test set is cut
    # the frozen arm does not train
    outcomes = [next(trained) if t
                else (None, TuneReport(method=method, config=cfg.to_dict()))
                for (_, method, cfg), t in zip(jobs, trains)]
    _score(jobs, outcomes)
    return outcomes


def scored_arms(seeds, prepare, arms):
    """Train and score the arms of every seed of `seeds`: `prepare(seed)`
    builds the seed's BenchmarkSetup, and each function `arm(seed, setup)`
    of `arms` gives one of its arms as a (method, TuneConfig) pair.
    Yields (seed, outcomes) in seed order, one outcome per arm in arm
    order: what :func:`run_arm_jobs` returns for it, or, for each arm of a
    seed whose `prepare` or an arm function raised, that error.

    Seeds are prepared one after another and batched: a seed joins the
    batch while every :func:`rtune.tuner.lockstep_key` stack of the batch
    (the arms that do not train count as one) stays within STACK_CAP runs,
    and each batch trains in one :func:`run_arm_jobs` call. So the setups
    held at once (a batch's, and the prepared seed that starts the next)
    do not grow with the number of seeds."""
    batch, stacks = [], Counter()
    for seed in seeds:
        try:
            setup = prepare(seed)
            jobs = [(setup, *arm(seed, setup)) for arm in arms]
        except Exception as exc:  # held, not swallowed: met in seed order
            batch.append((seed, [exc] * len(arms)))
            continue
        runs = Counter(lockstep_key(setup.frozen, cfg, method)
                       for _, method, cfg in jobs)
        if stacks and any(stacks[key] + count > STACK_CAP
                          for key, count in runs.items()):
            yield from _scored_batch(batch)
            batch, stacks = [], Counter()
        batch.append((seed, jobs))
        stacks.update(runs)
    yield from _scored_batch(batch)


def _scored_batch(batch):
    """The outcomes of one `scored_arms` batch, its jobs trained together."""
    trained = iter(run_arm_jobs([job for _, jobs in batch for job in jobs
                                 if not isinstance(job, Exception)]))
    for seed, jobs in batch:
        yield seed, [job if isinstance(job, Exception) else next(trained)
                     for job in jobs]


def _score(jobs, outcomes):
    """Fill the metrics of the reports in `outcomes`, one per job: each
    model, or its setup's frozen one when None, on its setup's test sets.
    The held sets are cut one at a time, each once, and every model scored
    on a set is forwarded over it once. An arm whose scoring fails gets its
    error in place of its outcome."""
    scored = {}  # each held set's identity -> (the set, its models by identity)
    for (setup, _, _), outcome in zip(jobs, outcomes):
        if not isinstance(outcome, Exception):
            model = outcome[0] or setup.frozen
            for test_set in (*setup.old_test_sets, setup.new_test_set):
                _, models = scored.setdefault(id(test_set), (test_set, {}))
                models[id(model)] = model
    pairs = {}  # (model identity, set identity) -> MetricPair or its error
    for set_id, (test_set, models) in scored.items():
        test = test_set.windows()
        for model_id, model in models.items():
            try:
                pairs[model_id, set_id] = score(model, test)
            except ValueError as exc:
                pairs[model_id, set_id] = exc
        del test  # before the next set is cut
    for i, ((setup, _, _), outcome) in enumerate(zip(jobs, outcomes)):
        if isinstance(outcome, Exception):
            continue
        model, report = outcome
        got = [pairs[id(model or setup.frozen), id(test_set)] for test_set
               in (*setup.old_test_sets, setup.new_test_set)]
        try:
            for pair in got:
                if isinstance(pair, Exception):
                    raise pair
            old, new = old_new(got[:-1], got[-1])
        except RuntimeError as exc:  # named by its arm, as training errors are
            outcomes[i] = RuntimeError(f"{exc} (method={report.method})")
        except ValueError as exc:
            outcomes[i] = exc
        else:
            report.old_metrics, report.new_metrics = old, new
            report.extra["benchmark"] = dict(setup.gen_params)
