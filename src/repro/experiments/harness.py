"""Generic adaptation-experiment harness.

An :class:`AdaptationSetting` names a source (training) dataset and a
target (testing) dataset — the three experiment families of the paper
differ only in how those are derived (type splits, domain splits, or
different corpora).  :func:`run_adaptation` trains every requested method
on source episodes and evaluates all methods on the *same* fixed-seed
test episodes, exactly as §4.2.1 prescribes.

The harness is fault tolerant:

* with a :class:`~repro.reliability.journal.RunJournal`, every completed
  cell is persisted as it finishes and skipped on the next run, so a
  killed sweep resumes instead of restarting;
* a method that raises during training or evaluation is isolated: its
  cells become :class:`FailedCell` entries (rendered as ``ERR``,
  excluded from CSV aggregates) while every other method is unaffected;
* a :class:`~repro.reliability.policy.CellPolicy` adds deterministic
  retry-with-perturbed-seed and a per-cell evaluation wall-clock budget
  with graceful degradation (CI over the episodes completed so far).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.data.episodes import EpisodeSampler
from repro.data.sentence import Dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.eval.aggregate import ConfidenceInterval
from repro.meta.evaluate import build_method, evaluate_method, fixed_episodes
from repro.perf.executor import EpisodeExecutor
from repro.reliability.journal import RunJournal
from repro.reliability.policy import CellPolicy

#: Row order of the paper's tables.
TABLE_METHODS = (
    "GPT2", "Flair", "ELMo", "BERT", "XLNet",
    "FineTune", "ProtoNet", "MAML", "SNAIL", "FewNER",
)


@dataclass(frozen=True)
class AdaptationSetting:
    """One column group of a results table (e.g. ``NNE: 5-way``)."""

    name: str
    train: Dataset
    test: Dataset
    #: Episode seed offsets so each setting gets distinct fixed episodes.
    eval_seed: int = 1234
    train_seed: int = 7


@dataclass(frozen=True)
class MethodResult:
    """One table cell: a method's score on one setting at one shot count."""

    method: str
    setting: str
    k_shot: int
    ci: ConfidenceInterval
    train_seconds: float
    eval_seconds: float
    #: True when this row reuses a model trained for another shot count
    #: (``share_training_across_shots``); the shared training cost is
    #: recorded once, on the row that actually trained.
    reused_training: bool = False
    #: Supervised-execution digest (:meth:`ExecutionReport.summary`);
    #: ``None`` only on a cell restored from a journal that predates it.
    execution: dict | None = None

    @property
    def f1(self) -> float:
        return self.ci.mean


@dataclass(frozen=True)
class FailedCell:
    """A cell abandoned after exhausting its retry policy."""

    method: str
    setting: str
    k_shot: int
    error: str


@dataclass
class TableResult:
    """All cells of one table."""

    title: str
    settings: list[str]
    shots: tuple[int, ...]
    cells: list[MethodResult] = field(default_factory=list)
    failures: list[FailedCell] = field(default_factory=list)
    #: One entry per cell whose evaluation needed self-healing (retries,
    #: quarantines, pool restarts, degraded fallback, lost episodes).
    execution_notes: list[dict] = field(default_factory=list)

    def cell(self, method: str, setting: str, k_shot: int) -> MethodResult:
        for c in self.cells:
            if (c.method, c.setting, c.k_shot) == (method, setting, k_shot):
                return c
        raise KeyError(f"no cell for {method}/{setting}/{k_shot}-shot")

    def failure(self, method: str, setting: str,
                k_shot: int) -> FailedCell | None:
        for f in self.failures:
            if (f.method, f.setting, f.k_shot) == (method, setting, k_shot):
                return f
        return None

    def to_csv(self) -> str:
        """Machine-readable export: one row per *successful* cell.

        Failed cells are excluded so downstream aggregates never mix
        error placeholders into means; the ``reused_training`` column
        marks rows whose training cost is carried by another row.
        """
        lines = ["method,setting,k_shot,f1,ci_half_width,episodes,"
                 "train_seconds,eval_seconds,reused_training"]
        for c in self.cells:
            lines.append(
                f"{c.method},{c.setting},{c.k_shot},{c.ci.mean:.6f},"
                f"{c.ci.half_width:.6f},{c.ci.n},"
                f"{c.train_seconds:.3f},{c.eval_seconds:.3f},"
                f"{int(c.reused_training)}"
            )
        return "\n".join(lines)

    def render(self) -> str:
        """Format like the paper's tables (methods x settings/shots).

        Cells that failed render as ``ERR``; cells never attempted
        render as ``-``.
        """
        present = ({c.method for c in self.cells}
                   | {f.method for f in self.failures})
        methods = [m for m in TABLE_METHODS if m in present]
        extra = sorted(present - set(methods))
        header = ["Method"] + [
            f"{s}:{k}-shot" for s in self.settings for k in self.shots
        ]
        lines = [self.title, "  ".join(f"{h:>22s}" for h in header)]
        for m in methods + extra:
            row = [f"{m:>22s}"]
            for s in self.settings:
                for k in self.shots:
                    try:
                        row.append(f"{str(self.cell(m, s, k).ci):>22s}")
                    except KeyError:
                        mark = "ERR" if self.failure(m, s, k) else "-"
                        row.append(f"{mark:>22s}")
            lines.append("  ".join(row))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Journal (de)serialisation of cells
# ----------------------------------------------------------------------
def _cell_payload(cell: MethodResult) -> dict:
    payload = {
        "f1": cell.ci.mean,
        "half_width": cell.ci.half_width,
        "episodes": cell.ci.n,
        "train_seconds": cell.train_seconds,
        "eval_seconds": cell.eval_seconds,
        "reused_training": cell.reused_training,
    }
    if cell.execution is not None:
        payload["execution"] = cell.execution
    return payload


def _cell_from_record(record: dict) -> MethodResult:
    return MethodResult(
        method=record["method"],
        setting=record["setting"],
        k_shot=int(record["k_shot"]),
        ci=ConfidenceInterval(
            mean=float(record["f1"]),
            half_width=float(record["half_width"]),
            n=int(record["episodes"]),
        ),
        train_seconds=float(record["train_seconds"]),
        eval_seconds=float(record["eval_seconds"]),
        reused_training=bool(record.get("reused_training", False)),
        execution=record.get("execution"),
    )


def _train_method(method_name: str, setting: AdaptationSetting,
                  word_vocab, char_vocab, scale, train_shots,
                  seed_offset: int) -> dict:
    """Train one method on every required shot count; returns
    ``{k_shot: (adapter, train_seconds)}``."""
    method_config = scale.method_config
    if seed_offset:
        method_config = replace(
            method_config, seed=method_config.seed + seed_offset
        )
    trained = {}
    for k_train in train_shots:
        adapter = build_method(
            method_name, word_vocab, char_vocab, scale.n_way, method_config,
        )
        sampler = EpisodeSampler(
            setting.train, scale.n_way, k_train,
            query_size=scale.query_size,
            seed=setting.train_seed + seed_offset,
        )
        t0 = time.perf_counter()
        with obs.span("train", method=method_name, setting=setting.name,
                      k_shot=k_train):
            adapter.fit(sampler, scale.iterations_for(method_name))
        trained[k_train] = (adapter, time.perf_counter() - t0)
    return trained


def run_adaptation(
    title: str,
    settings: list[AdaptationSetting],
    methods: tuple[str, ...],
    scale,
    journal: RunJournal | None = None,
    policy: CellPolicy | None = None,
    on_cell=None,
    workers: int = 1,
    task_timeout_s: float | None = None,
) -> TableResult:
    """Train and evaluate ``methods`` on every setting; fill a table.

    With ``scale.share_training_across_shots`` (the default presets), each
    method is trained once per setting on ``min(shots)``-shot episodes and
    evaluated at every shot count; the ``paper`` preset trains one model
    per (setting, shot) as the authors did.

    ``journal`` makes the run resumable (completed cells are restored,
    not recomputed), ``policy`` configures retries and evaluation
    budgets, and ``on_cell`` is invoked after each newly completed cell
    (a fault-injection and progress hook).  ``workers`` (the number of
    processes that score episodes; the scores are the same for any
    count) and ``task_timeout_s`` (the per-episode deadline) are
    forwarded to :func:`~repro.meta.evaluate.evaluate_method`, and are
    checked before any training.  Both compose with journal resume since
    only whole completed cells are journalled.  Whenever self-healing
    had to act (retries, quarantines, pool restarts, degraded fallback,
    abandoned episodes), the digest is recorded on the cell, appended to
    :attr:`TableResult.execution_notes`, and journalled as a ``note``.
    """
    # The executor's own argument check, run here so that a bad value
    # (e.g. workers=0) fails the call, not every cell after training.
    EpisodeExecutor(workers=workers, task_timeout_s=task_timeout_s)
    policy = policy or CellPolicy()
    result = TableResult(
        title=title, settings=[s.name for s in settings], shots=scale.shots
    )
    if journal is not None:
        journal.begin(title, result.settings, scale.shots)
    for setting in settings:
        word_vocab = Vocabulary.from_datasets([setting.train])
        char_vocab = CharVocabulary.from_datasets([setting.train])
        episodes_by_shot = {
            k: fixed_episodes(
                setting.test, scale.n_way, k, scale.eval_episodes,
                seed=setting.eval_seed + k, query_size=scale.query_size,
            )
            for k in scale.shots
        }
        train_shots = (
            (min(scale.shots),) if scale.share_training_across_shots
            else scale.shots
        )
        for method_name in methods:
            missing = []
            for k in scale.shots:
                record = (journal.completed(method_name, setting.name, k)
                          if journal is not None else None)
                if record is not None:
                    result.cells.append(_cell_from_record(record))
                else:
                    missing.append(k)
            if not missing:
                continue
            # Train (with the retry policy) and evaluate the missing
            # cells; any exception is isolated to this method.
            pending = list(missing)
            try:
                trained = None
                for attempt in range(policy.retries + 1):
                    try:
                        trained = _train_method(
                            method_name, setting, word_vocab, char_vocab,
                            scale, train_shots,
                            seed_offset=policy.seed_for_attempt(0, attempt),
                        )
                        break
                    except Exception:
                        if attempt >= policy.retries:
                            raise
                for k_eval in missing:
                    adapter, train_s = trained.get(
                        k_eval, trained[min(train_shots)]
                    )
                    reused = k_eval not in trained
                    t0 = time.perf_counter()
                    eval_result = evaluate_method(
                        adapter, episodes_by_shot[k_eval],
                        budget_seconds=policy.budget_seconds,
                        min_episodes=policy.min_episodes,
                        workers=workers,
                        task_timeout_s=task_timeout_s,
                    )
                    execution = eval_result.execution
                    cell = MethodResult(
                        method=method_name,
                        setting=setting.name,
                        k_shot=k_eval,
                        ci=eval_result.ci,
                        train_seconds=0.0 if reused else train_s,
                        eval_seconds=time.perf_counter() - t0,
                        reused_training=reused,
                        execution=execution.summary(),
                    )
                    result.cells.append(cell)
                    pending.remove(k_eval)
                    obs.emit("cell", method=method_name,
                             setting=setting.name, k_shot=k_eval,
                             f1=cell.ci.mean, half_width=cell.ci.half_width,
                             reused_training=reused)
                    if not execution.clean:
                        note = {
                            "method": method_name,
                            "setting": setting.name,
                            "k_shot": k_eval,
                            "failed_episodes": list(
                                eval_result.failed_episodes
                            ),
                            **execution.summary(),
                        }
                        result.execution_notes.append(note)
                        if journal is not None:
                            journal.record_note("execution", note)
                    if journal is not None:
                        journal.record_cell(
                            method_name, setting.name, k_eval,
                            _cell_payload(cell),
                        )
                    if on_cell is not None:
                        on_cell(cell)
            except Exception as exc:  # fault isolation boundary
                error = f"{type(exc).__name__}: {exc}"
                for k in pending:
                    result.failures.append(
                        FailedCell(method_name, setting.name, k, error)
                    )
                    obs.emit("cell_failure", method=method_name,
                             setting=setting.name, k_shot=k, error=error)
                    if journal is not None:
                        journal.record_failure(
                            method_name, setting.name, k, error
                        )
    return result
