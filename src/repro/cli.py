"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate``   — write a simulated corpus to a CoNLL file;
* ``stats``      — print Table-1-style statistics for a corpus;
* ``train``      — train an adaptation method and save a checkpoint;
* ``evaluate``   — evaluate a trained FEWNER checkpoint on episodes;
* ``experiment`` — run one of the paper's experiments (table1..table6,
  timing) at a chosen scale and print the rendered result;
* ``tag``        — serve tag requests from a checkpoint through the
  hardened :class:`~repro.serving.TaggingService` (validated input,
  ``--deadline-ms`` budgets, graceful degradation);
* ``validate``   — lint a CoNLL file, reporting every defect with file
  and line number (non-zero exit when defects exist);
* ``chaos soak`` — loop the cross-layer chaos scenarios (worker
  crashes/hangs, NaN gradients, checkpoint corruption, serving fault
  bursts) under a time/round budget and fail on any broken invariant;
* ``obs report`` — aggregate a ``--telemetry`` JSONL stream into a
  run report (per-phase time breakdown, executor retry/quarantine
  counts, adaptation-cache hit rate, notable events);
* ``obs trace``  — render one request's cross-process hop timeline
  from a traced telemetry stream (see ``--trace-requests``).

The ``train``, ``evaluate``, ``experiment`` and ``tag`` commands
accept ``--telemetry PATH``: the whole command runs inside a
:mod:`repro.obs` telemetry session and appends spans, events and a
final metrics snapshot to ``PATH`` as JSON lines.  Telemetry
never changes results — scores are bit-identical with it on or off.

Examples::

    repro tag model.npz --input corpus.conll --conll --deadline-ms 50
    echo "Kavox visited Zuqev" | repro tag model.npz
    repro validate corpus.conll --scheme bio
    repro chaos soak --max-rounds 1 --seed 0
    repro experiment table2 --preset smoke --telemetry run.jsonl
    repro obs report run.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro.data.conll import write_conll_file
from repro.data.specs import DATASET_SPECS
from repro.data.splits import split_by_types
from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.data.episodes import EpisodeSampler


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=sorted(DATASET_SPECS),
                        default="GENIA")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's sentence count")
    parser.add_argument("--seed", type=int, default=0)


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="append tracing spans, events and metrics "
                             "to this JSONL file (inspect with "
                             "'repro obs report PATH')")


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-requests", action="store_true",
                        help="mint a deterministic trace id per admitted "
                             "request and record per-hop spans into the "
                             "--telemetry stream (inspect with "
                             "'repro obs trace PATH TRACE_ID')")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="arm the in-memory flight recorder; recent "
                             "events are dumped to DIR/flight-<pid>.jsonl "
                             "on breaker-open or replica death (works "
                             "without --telemetry)")


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_dataset(args.dataset, scale=args.scale, seed=args.seed)
    write_conll_file(dataset, args.output, scheme=args.scheme)
    print(f"wrote {len(dataset)} sentences / {dataset.num_mentions} mentions "
          f"to {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.experiments import table1

    rows = table1.run(None, corpus_scale=args.scale, seed=args.seed)
    print(table1.render(rows))
    if args.detailed:
        from repro.data.statistics import profile_corpus

        for row in rows:
            dataset = generate_dataset(row.dataset, scale=args.scale,
                                       seed=args.seed)
            print()
            print(profile_corpus(dataset).render())
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.meta import MethodConfig, build_method
    from repro.nn import save_module
    from repro.reliability import CheckpointStore, TrainingDiverged

    dataset = generate_dataset(args.dataset, scale=args.scale, seed=args.seed)
    n_types = len(dataset.types)
    counts = (n_types - 2 * args.holdout_types, args.holdout_types,
              args.holdout_types)
    train, _val, _test = split_by_types(dataset, counts, seed=args.seed + 1)
    word_vocab = Vocabulary.from_datasets([train], min_count=2)
    char_vocab = CharVocabulary.from_datasets([train])
    config = MethodConfig(seed=args.seed,
                          pretrain_iterations=args.pretrain_iterations)
    adapter = build_method(args.method, word_vocab, char_vocab,
                           args.n_way, config)
    sampler = EpisodeSampler(train, args.n_way, args.k_shot,
                             query_size=4, seed=args.seed + 7)
    print(f"training {args.method} on {args.dataset} "
          f"({args.n_way}-way {args.k_shot}-shot) ...")
    try:
        if args.resume:
            store = CheckpointStore(args.output + ".state")
            losses = adapter.fit_resumable(
                sampler, args.iterations, store,
                every=args.checkpoint_every,
            )
        else:
            losses = adapter.fit(sampler, args.iterations)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = getattr(adapter, "anomaly_report", None)
    if report is not None and not report.clean:
        print(report.render())
    print(f"final loss: {losses[-1]:.4f}")
    model = getattr(adapter, "model", None) or getattr(adapter, "tagger")
    save_module(model, args.output, metadata={
        "method": args.method,
        "dataset": args.dataset,
        "n_way": args.n_way,
        "k_shot": args.k_shot,
        "scale": args.scale,
        "seed": args.seed,
        "holdout_types": args.holdout_types,
    })
    print(f"checkpoint written to {args.output}")
    return 0


def _executor_args_error(args: argparse.Namespace) -> str | None:
    """The executor's own check of ``--workers`` and
    ``--task-timeout-s``, run before any work; ``None`` when valid."""
    from repro.perf import EpisodeExecutor

    try:
        EpisodeExecutor(workers=args.workers,
                        task_timeout_s=args.task_timeout_s)
    except ValueError as exc:
        return str(exc)
    return None


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.meta import MethodConfig, build_method, evaluate_method
    from repro.meta.evaluate import fixed_episodes
    from repro.nn import CheckpointError, load_module, load_state

    problem = _executor_args_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        _state, metadata = load_state(args.checkpoint)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError:
        print(f"error: checkpoint {args.checkpoint!r} does not exist",
              file=sys.stderr)
        return 1
    method = metadata.get("method", "FewNER")
    dataset = generate_dataset(
        metadata.get("dataset", args.dataset),
        scale=metadata.get("scale", args.scale),
        seed=metadata.get("seed", args.seed),
    )
    n_types = len(dataset.types)
    counts = (n_types - 2 * args.holdout_types, args.holdout_types,
              args.holdout_types)
    train, _val, test = split_by_types(
        dataset, counts, seed=metadata.get("seed", args.seed) + 1
    )
    word_vocab = Vocabulary.from_datasets([train], min_count=2)
    char_vocab = CharVocabulary.from_datasets([train])
    config = MethodConfig(seed=metadata.get("seed", args.seed))
    adapter = build_method(method, word_vocab, char_vocab,
                           metadata.get("n_way", args.n_way), config)
    model = getattr(adapter, "model", None) or getattr(adapter, "tagger")
    load_module(model, args.checkpoint)
    episodes = fixed_episodes(
        test, metadata.get("n_way", args.n_way), args.k_shot,
        args.episodes, seed=args.seed + 99, query_size=4,
    )
    result = evaluate_method(adapter, episodes, workers=args.workers,
                             task_timeout_s=args.task_timeout_s)
    print(f"{method}: {result.ci} over {args.episodes} episodes")
    if not result.execution.clean:
        print(result.execution.render())
    if result.failed_episodes:
        print(f"warning: episodes {list(result.failed_episodes)} failed "
              f"and are excluded from the CI", file=sys.stderr)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    import inspect
    import os

    from repro.experiments import run_experiment
    from repro.experiments.registry import EXPERIMENTS, render_result

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    problem = _executor_args_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.journal:
        if "journal" not in inspect.signature(EXPERIMENTS[args.name]).parameters:
            print(f"error: experiment {args.name!r} does not support "
                  f"--journal (no resumable table run)", file=sys.stderr)
            return 2
        if args.resume and not os.path.exists(args.journal):
            print(f"error: --resume requested but journal "
                  f"{args.journal!r} does not exist", file=sys.stderr)
            return 2
        from repro.reliability import RunJournal

        journal = RunJournal(args.journal)
        done = len(journal.completed_cells())
        if done:
            print(f"resuming from {args.journal}: "
                  f"{done} completed cells will be skipped")
        kwargs["journal"] = journal
    if args.workers != 1:
        if "workers" not in inspect.signature(EXPERIMENTS[args.name]).parameters:
            print(f"error: experiment {args.name!r} does not support "
                  f"--workers (no episode-parallel evaluation)",
                  file=sys.stderr)
            return 2
        kwargs["workers"] = args.workers
    if args.task_timeout_s is not None:
        signature = inspect.signature(EXPERIMENTS[args.name])
        if "task_timeout_s" not in signature.parameters:
            print(f"error: experiment {args.name!r} does not support "
                  f"--task-timeout-s (no supervised evaluation)",
                  file=sys.stderr)
            return 2
        kwargs["task_timeout_s"] = args.task_timeout_s
    from repro.reliability.journal import JournalMismatch

    try:
        result = run_experiment(args.name, args.preset, **kwargs)
    except JournalMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_result(args.name, result))
    from repro.obs import render_event

    for note in getattr(result, "execution_notes", ()) or ():
        print(render_event({"kind": "event", "name": "execution", **note}),
              file=sys.stderr)
    return 0


def cmd_chaos_soak(args: argparse.Namespace) -> int:
    from repro.reliability.chaos import SCENARIOS, run_soak

    if args.list:
        for scenario in SCENARIOS.values():
            print(f"{scenario.name}: {scenario.description}")
        return 0
    try:
        report = run_soak(
            scenarios=args.scenario or None,
            time_budget_s=args.time_budget_s,
            max_rounds=args.max_rounds,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(report.summary(), indent=2))
    else:
        print(report.render())
    return 0 if report.passed else 1


def cmd_tag(args: argparse.Namespace) -> int:
    from repro.data.sentence import Sentence, Span
    from repro.nn import CheckpointError
    from repro.serving import ServiceConfig, TaggingService

    try:
        service = TaggingService.from_checkpoint(
            args.checkpoint,
            config=ServiceConfig(default_deadline_ms=args.deadline_ms),
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError:
        print(f"error: checkpoint {args.checkpoint!r} does not exist",
              file=sys.stderr)
        return 1
    except ValueError as exc:  # e.g. state-dict mismatch on rebuild
        print(f"error: cannot rebuild the model from "
              f"{args.checkpoint!r}: {exc}", file=sys.stderr)
        return 1

    quarantined = 0
    if args.conll:
        if args.strict:
            from repro.data.conll import read_conll_file

            try:
                dataset = read_conll_file(args.input, scheme=args.scheme,
                                          strict=True)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        else:
            from repro.data.lint import read_conll_lenient

            dataset, report = read_conll_lenient(args.input,
                                                 scheme=args.scheme)
            if not report.clean:
                print(report.render(), file=sys.stderr)
                quarantined = report.n_quarantined
        requests = [list(sentence.tokens) for sentence in dataset]
    else:
        if args.input in (None, "-"):
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.input, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        requests = [line.split() for line in lines if line.strip()]

    results = service.tag_many(requests)
    failures = 0
    for result in results:
        if result.status == "ok":
            rendered = Sentence(
                result.tokens,
                tuple(Span(s, e, lab) for s, e, lab in result.spans),
            ).pretty()
            flags = []
            if result.degraded:
                flags.append(f"degraded: {result.note}")
            if result.modified:
                flags.append("input sanitized")
            if result.oov_rate > 0:
                flags.append(f"oov={result.oov_rate:.2f}")
            suffix = f"\t# {'; '.join(flags)}" if flags else ""
            print(rendered + suffix)
        else:
            failures += 1
            print(f"# {result.status}: {result.reason}")
    stats = service.stats
    print(
        f"served {stats['served']} request(s): {stats['degraded']} degraded, "
        f"{stats['invalid']} invalid, {stats['shed']} shed, "
        f"{quarantined} quarantined (breaker {service.breaker.state})",
        file=sys.stderr,
    )
    if args.strict and (failures or quarantined):
        return 1
    return 0


def _gateway_factory(args):
    """Build the per-replica service factory (and fail fast in the
    parent if the checkpoint is unusable)."""
    from repro.serving import ServiceConfig, TaggingService

    config = ServiceConfig(default_deadline_ms=args.deadline_ms)
    # Load once in the parent: surfaces checkpoint errors before any
    # replica forks, and the model is inherited copy-on-write.
    probe = TaggingService.from_checkpoint(args.checkpoint, config=config)
    model, scheme = probe.model, probe.scheme

    def factory(replica_id: int) -> TaggingService:
        return TaggingService(model, scheme, config)

    return factory


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.data.sentence import Sentence, Span
    from repro.nn import CheckpointError
    from repro.serving.gateway import GatewayConfig, ShardedGateway

    try:
        factory = _gateway_factory(args)
    except (CheckpointError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.input in (None, "-"):
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.input, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    requests = [line.split() for line in lines if line.strip()]

    gateway = ShardedGateway(
        factory,
        GatewayConfig(replicas=args.replicas,
                      max_shard_queue=args.max_shard_queue,
                      hedge_after_ms=args.hedge_after_ms),
        backend=args.backend,
        telemetry_path=getattr(args, "telemetry", None),
    )
    failures = 0
    try:
        if args.rolling_reload:
            gateway.start_rolling_reload()
        results = gateway.tag_many(requests, timeout_s=args.timeout_s)
        if args.rolling_reload:
            gateway.drain(timeout_s=args.timeout_s, pump_reload=True)
        for result in results:
            if result.status == "ok":
                print(Sentence(
                    result.tokens,
                    tuple(Span(s, e, lab) for s, e, lab in result.spans),
                ).pretty())
            else:
                failures += 1
                print(f"# {result.status}: {result.reason}")
        report = gateway.report
        health = gateway.health()
    finally:
        gateway.shutdown()
    print(report.render(), file=sys.stderr)
    print(f"fleet: {health['healthy']}/{health['replicas']} replicas "
          f"healthy ({gateway.backend} backend)", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(report.summary(), indent=2, sort_keys=True))
    if args.strict and failures:
        return 1
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.nn import CheckpointError
    from repro.serving.gateway import GatewayConfig, ShardedGateway
    from repro.serving.loadgen import run_load, synthetic_requests

    try:
        factory = _gateway_factory(args)
    except (CheckpointError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    models = (("open", "closed") if args.model == "both"
              else (args.model,))
    requests = synthetic_requests(args.requests, seed=args.seed)
    priorities = None
    if args.priority_mix:
        from repro.serving import assign_priorities, parse_priority_mix

        try:
            mix = parse_priority_mix(args.priority_mix)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        priorities = assign_priorities(args.requests, mix, seed=args.seed)
    reports = {}
    for model in models:
        gateway = ShardedGateway(
            factory,
            GatewayConfig(replicas=args.replicas,
                          max_shard_queue=args.max_shard_queue),
            backend=args.backend,
            telemetry_path=getattr(args, "telemetry", None),
        )
        try:
            slo = run_load(
                gateway, requests, model=model, rate_rps=args.rate,
                concurrency=args.concurrency, seed=args.seed,
                timeout_s=args.timeout_s, priorities=priorities,
            )
        finally:
            gateway.shutdown()
        reports[model] = slo
        print(slo.render())
    if args.json:
        import json

        print(json.dumps({m: r.summary() for m, r in reports.items()},
                         indent=2, sort_keys=True))
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    import os

    from repro.obs import build_report, load_events, render_report
    from repro.obs.report import SchemaVersionError

    if not os.path.exists(args.telemetry_file):
        print(f"error: telemetry file {args.telemetry_file!r} does not "
              f"exist", file=sys.stderr)
        return 2
    try:
        report = build_report(load_events(args.telemetry_file))
    except SchemaVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0


def cmd_obs_trace(args: argparse.Namespace) -> int:
    import os

    from repro.obs import load_events
    from repro.obs.report import (
        SchemaVersionError,
        assemble_traces,
        check_schema,
        find_traces,
        render_trace,
    )

    if not os.path.exists(args.telemetry_file):
        print(f"error: telemetry file {args.telemetry_file!r} does not "
              f"exist", file=sys.stderr)
        return 2
    records = load_events(args.telemetry_file)
    try:
        check_schema(records)
    except SchemaVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traces = assemble_traces(records)
    matches = find_traces(traces, args.trace_id)
    if not matches:
        print(f"error: no trace matching {args.trace_id!r} "
              f"({len(traces)} trace(s) in the stream)", file=sys.stderr)
        return 1
    if len(matches) > 1 and not args.json:
        print(f"note: {len(matches)} traces match prefix "
              f"{args.trace_id!r}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(matches if len(matches) > 1 else matches[0],
                         indent=2, sort_keys=True))
    else:
        print("\n\n".join(render_trace(t) for t in matches))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.data.lint import CorpusLintError, CorpusValidator

    try:
        validator = CorpusValidator(scheme=args.scheme)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.input, encoding="utf-8") as fh:
            if args.strict:
                try:
                    validator.validate_strict(fh, name=args.input)
                except CorpusLintError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                print(f"{args.input}: clean")
                return 0
            _dataset, report = validator.validate_lines(fh, name=args.input)
    except FileNotFoundError:
        print(f"error: corpus {args.input!r} does not exist", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FewNER reproduction: few-shot NER via meta-learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a simulated corpus as CoNLL")
    _add_corpus_args(p)
    p.add_argument("--scheme", choices=("bio", "iobes"), default="bio")
    p.add_argument("output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="Table-1 statistics for all corpora")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detailed", action="store_true",
                   help="also print per-corpus distribution profiles")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a method, save a checkpoint")
    _add_corpus_args(p)
    p.add_argument("--method", default="FewNER")
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--pretrain-iterations", type=int, default=60)
    p.add_argument("--holdout-types", type=int, default=5)
    p.add_argument("--resume", action="store_true",
                   help="train in crash-safe chunks under OUTPUT.state/ "
                        "and continue from the newest checkpoint")
    p.add_argument("--checkpoint-every", type=int, default=5,
                   help="iterations between training checkpoints "
                        "(with --resume)")
    _add_telemetry_arg(p)
    p.add_argument("output")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on episodes")
    _add_corpus_args(p)
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--episodes", type=int, default=50)
    p.add_argument("--holdout-types", type=int, default=5)
    p.add_argument("--workers", type=int, default=1,
                   help="processes that score episodes: 1 = serial in "
                        "this process, > 1 forks that many workers; "
                        "every count gives the same scores")
    p.add_argument("--task-timeout-s", type=float, default=None,
                   help="per-episode deadline under --workers > 1; a "
                        "hung episode is retried on a fresh worker")
    _add_telemetry_arg(p)
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", choices=(
        "table1", "table2", "table3", "table4", "table5", "table6",
        "timing", "figure_adaptation",
    ))
    p.add_argument("--preset", default=None,
                   help="scale preset (smoke | default | paper)")
    p.add_argument("--journal", default=None,
                   help="JSONL run journal; completed cells are recorded "
                        "as they finish and skipped when the file is "
                        "reused")
    p.add_argument("--resume", action="store_true",
                   help="require an existing --journal and continue it")
    p.add_argument("--workers", type=int, default=1,
                   help="processes that score episodes (same scores for "
                        "any count; composes with --journal resume)")
    p.add_argument("--task-timeout-s", type=float, default=None,
                   help="per-episode deadline under --workers (see "
                        "repro evaluate --task-timeout-s)")
    _add_telemetry_arg(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "tag",
        help="serve tag requests from a checkpoint (validated, "
             "deadline-bounded, degradation-aware)",
    )
    p.add_argument("checkpoint")
    p.add_argument("--input", default=None,
                   help="input file ('-' or omitted = stdin); one "
                        "whitespace-tokenized sentence per line unless "
                        "--conll")
    p.add_argument("--conll", action="store_true",
                   help="input is a CoNLL file; bad sentences are "
                        "quarantined (lenient) or fatal (--strict)")
    p.add_argument("--scheme", choices=("bio", "iobes"), default="bio",
                   help="tag scheme of a --conll input")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request decode budget in milliseconds; "
                        "past it, requests degrade to greedy decode")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on any invalid or quarantined "
                        "input instead of skipping it")
    _add_telemetry_arg(p)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser(
        "serve",
        help="serve tag requests through the sharded replica gateway "
             "(failover, hedging, rolling reload)",
    )
    p.add_argument("checkpoint")
    p.add_argument("--input", default=None,
                   help="input file ('-' or omitted = stdin); one "
                        "whitespace-tokenized sentence per line")
    p.add_argument("--replicas", type=int, default=3,
                   help="replica count (default 3)")
    p.add_argument("--backend", choices=("auto", "process", "in-process"),
                   default="auto",
                   help="replica backend (auto = forked workers when "
                        "the platform supports fork)")
    p.add_argument("--max-shard-queue", type=int, default=64,
                   help="bounded per-shard queue; admission past it is "
                        "shed with backpressure (default 64)")
    p.add_argument("--hedge-after-ms", type=float, default=None,
                   help="hedge a request to a second replica past this "
                        "in-flight latency (default: off)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request decode budget in milliseconds")
    p.add_argument("--rolling-reload", action="store_true",
                   help="run a rolling drain/swap/readmit reload while "
                        "serving (demonstrates zero-loss reload)")
    p.add_argument("--timeout-s", type=float, default=60.0,
                   help="wall-clock bound on draining (default 60)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero if any request failed")
    p.add_argument("--json", action="store_true",
                   help="also print the machine-readable gateway report")
    _add_telemetry_arg(p)
    _add_trace_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive the gateway with seeded open-/closed-loop traffic; "
             "print a latency SLO report",
    )
    p.add_argument("checkpoint")
    p.add_argument("--requests", type=int, default=64,
                   help="number of synthetic requests (default 64)")
    p.add_argument("--model", choices=("open", "closed", "both"),
                   default="both",
                   help="arrival model (default: both, one run each)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="open-loop arrival rate in req/s (default 200)")
    p.add_argument("--concurrency", type=int, default=8,
                   help="closed-loop virtual clients (default 8)")
    p.add_argument("--replicas", type=int, default=3,
                   help="replica count (default 3)")
    p.add_argument("--backend", choices=("auto", "process", "in-process"),
                   default="auto")
    p.add_argument("--max-shard-queue", type=int, default=64)
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request decode budget in milliseconds")
    p.add_argument("--priority-mix", default=None, metavar="SPEC",
                   help="attach priority classes to the synthetic "
                        "traffic and report per-class SLOs, e.g. "
                        "'interactive=0.2,standard=0.5,batch=0.3'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout-s", type=float, default=60.0,
                   help="wall-clock bound per run (default 60)")
    p.add_argument("--json", action="store_true",
                   help="also print machine-readable SLO summaries")
    _add_telemetry_arg(p)
    _add_trace_args(p)
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("chaos", help="chaos/soak testing tools")
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)
    p = chaos_sub.add_parser(
        "soak",
        help="loop the cross-layer chaos scenarios under a budget; "
             "exit 1 on any broken invariant",
    )
    p.add_argument("--scenario", action="append", default=None,
                   metavar="NAME",
                   help="scenario to include (repeatable; default: all)")
    p.add_argument("--time-budget-s", type=float, default=60.0,
                   help="wall-clock budget; at least one full round "
                        "always completes (default 60)")
    p.add_argument("--max-rounds", type=int, default=None,
                   help="stop after this many full rounds")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; each round derives fresh fault "
                        "schedules from it")
    p.add_argument("--list", action="store_true",
                   help="list the available scenarios and exit")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable soak summary")
    p.set_defaults(func=cmd_chaos_soak)

    p = sub.add_parser("obs", help="telemetry tools")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "report",
        help="aggregate a --telemetry JSONL stream into a run report",
    )
    p.add_argument("telemetry_file",
                   help="JSONL file written by a --telemetry run")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable report instead of "
                        "the rendered breakdown")
    p.set_defaults(func=cmd_obs_report)
    p = obs_sub.add_parser(
        "trace",
        help="render one request's cross-process hop timeline from a "
             "--telemetry stream (accepts a trace-id prefix)",
    )
    p.add_argument("telemetry_file",
                   help="JSONL file written by a traced --telemetry run "
                        "(replica sibling files are stitched in "
                        "automatically)")
    p.add_argument("trace_id",
                   help="trace id (or unambiguous prefix) to render")
    p.add_argument("--json", action="store_true",
                   help="print the assembled trace as JSON instead of "
                        "the rendered timeline")
    p.set_defaults(func=cmd_obs_trace)

    p = sub.add_parser("validate",
                       help="lint a CoNLL corpus; non-zero exit on defects")
    p.add_argument("input")
    p.add_argument("--scheme", choices=("bio", "iobes"), default="bio")
    p.add_argument("--strict", action="store_true",
                   help="aggregate all defects into one error instead of "
                        "printing a quarantine report")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    import contextlib

    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry = getattr(args, "telemetry", None)
    with contextlib.ExitStack() as stack:
        if telemetry:
            from repro.obs import telemetry_session

            stack.enter_context(telemetry_session(telemetry))
        if getattr(args, "trace_requests", False):
            from repro.obs.reqtrace import request_tracing

            stack.enter_context(request_tracing())
        if getattr(args, "flight_dir", None):
            from repro.obs.reqtrace import flight_recorder

            stack.enter_context(flight_recorder(args.flight_dir))
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
